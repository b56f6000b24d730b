"""The filtered diameter is bitwise the all-pairs scan.

``repro.geometry.diameter`` (and ``max_pairwise_distance`` and the tiled
store's ``max_distance``, which share its kernel) scans only the points that
can belong to a pair at least as long as a lower bound.  These tests pin it
bit for bit against the blocked all-pairs scan it replaced
(``tests/oracles/geometry.py``) on deployment shapes that prune well and
badly (a circle keeps every point), on coordinates up to 1e9 including
subnormal ones, on tiny sets, and on non-finite coordinates.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Node,
    Point,
    diameter,
    distance_matrix,
    max_pairwise_distance,
    nodes_from_points,
)
from repro.geometry import point as point_module
from repro.state import TiledNetworkState

from .oracles import diameter_reference

SHAPES = ("uniform", "clustered", "two_scale", "grid", "collinear", "circle")


def _shape(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points of one deployment shape in the unit square, as an (n, 2) array."""
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, size=(n, 2))
    if kind == "clustered":
        centres = rng.uniform(0.0, 1.0, size=(3, 2))
        return centres[rng.integers(0, 3, size=n)] + rng.normal(0.0, 0.02, size=(n, 2))
    if kind == "two_scale":
        coarse = rng.uniform(0.0, 1.0, size=(n, 2))
        fine = coarse[0] + rng.uniform(0.0, 1e-4, size=(n, 2))
        return np.where(rng.random((n, 1)) < 0.5, coarse, fine)
    if kind == "grid":
        side = max(1, math.ceil(math.sqrt(n)))
        cells = np.arange(n)
        return np.stack((cells % side, cells // side), axis=1) / side
    if kind == "collinear":
        t = rng.uniform(0.0, 1.0, size=n)
        return np.stack((t, 0.3 + 0.5 * t), axis=1)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.stack((np.cos(angles), np.sin(angles)), axis=1)


def _nodes(xy: np.ndarray) -> list[Node]:
    return nodes_from_points(Point(float(x), float(y)) for x, y in xy)


def _same(got: float, want: float) -> bool:
    """Bitwise equality of two floats, NaN equal to NaN."""
    return np.array_equal(np.float64(got), np.float64(want), equal_nan=True)


coordinate = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class TestFilteredScanIsTheFullScan:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(SHAPES),
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(min_value=1e-6, max_value=1e9),
        offset_x=coordinate,
        offset_y=coordinate,
    )
    def test_deployment_shapes(self, kind, n, seed, scale, offset_x, offset_y):
        xy = _shape(kind, n, np.random.default_rng(seed)) * scale + (offset_x, offset_y)
        nodes = _nodes(xy)
        assert _same(diameter(nodes), diameter_reference(nodes))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=40))
    def test_arbitrary_coordinates(self, coords):
        # Hypothesis draws subnormal, repeated and extreme values here.
        nodes = _nodes(np.array(coords, dtype=float).reshape(-1, 2))
        assert _same(diameter(nodes), diameter_reference(nodes))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True)),
            min_size=0,
            max_size=8,
        )
    )
    def test_any_float_including_nan_and_inf(self, coords):
        nodes = _nodes(np.array(coords, dtype=float).reshape(-1, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            want = diameter_reference(nodes)
            assert _same(diameter(nodes), want)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny_sets(self, n):
        nodes = _nodes(np.random.default_rng(n).uniform(-1e9, 1e9, size=(n, 2)))
        assert diameter(nodes) == diameter_reference(nodes)

    def test_overflowing_difference_is_infinite(self):
        nodes = _nodes(np.array([[-1.7e308, 0.0], [1.7e308, 0.0], [0.0, 1.0]]))
        with np.errstate(over="ignore"):
            assert diameter(nodes) == diameter_reference(nodes) == math.inf

    @pytest.mark.parametrize("block_pairs", [1, 50])
    def test_circle_keeps_every_point(self, block_pairs, monkeypatch):
        # No point can be ruled out: the kept set is the whole set, scanned
        # in blocks.
        monkeypatch.setattr(point_module, "_DIAMETER_BLOCK_PAIRS", block_pairs)
        nodes = _nodes(_shape("circle", 64, np.random.default_rng(5)) * 1e3)
        assert diameter(nodes) == diameter_reference(nodes)


class TestOneKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=30))
    def test_max_pairwise_distance_is_the_matrix_max(self, coords):
        points = [Point(x, y) for x, y in coords]
        assert max_pairwise_distance(points) == float(distance_matrix(points).max())

    def test_max_pairwise_distance_needs_two_points(self):
        with pytest.raises(ValueError):
            max_pairwise_distance([])
        with pytest.raises(ValueError):
            max_pairwise_distance([Point(1.0, 2.0)])

    @pytest.mark.parametrize("kind", SHAPES)
    def test_tiled_store_max_distance(self, kind):
        nodes = _nodes(_shape(kind, 200, np.random.default_rng(11)) * 5e3)
        state = TiledNetworkState(nodes)
        assert state.max_distance() == diameter_reference(nodes)
        gone = {nodes[0].id, nodes[7].id, nodes[150].id}
        state.remove_nodes(gone)
        live = [node for node in nodes if node.id not in gone]
        assert state.max_distance() == diameter_reference(live)
