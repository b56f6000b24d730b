"""TreeViaCapacity's inner ``Init`` builds skip the slot-pairs that form no link.

``InitialTreeBuilder.build(..., _inner=True)`` opens every round with the
list of active pairs whose stored attenuation lies in the round's widened
length class, steps no slot-pair whose broadcasters have no listed partner,
lets the rest of a round pass once no pair remains, and records no trace.
These tests pin it against a full build of the same input, which steps every
slot:

* the per-node state, stored degrees and slot, round and sweep counts agree,
  on uniform, clustered, collinear and class-boundary deployments, under
  every gain model, with and without noise, over single and multi-sweep runs;
* the pair list covers every pair the protocol's ``math.hypot`` class test
  admits, pairs ``2**k`` apart and one ulp either side included;
* the ``core.init.skipped_pairs`` counter equals the number of the full
  build's slot-pairs in which no broadcaster had an active node in the
  widened class, so partners are dropped as their ends retire.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_CONSTANTS, AlgorithmConstants
from repro.core import InitialTreeBuilder
from repro.core.init_tree import _WIDEN, _InitProgram
from repro.dynamics import LogNormalShadowing, RayleighFading
from repro.exceptions import ProtocolError
from repro.geometry import Node, Point, nodes_to_array, uniform_random
from repro.obs import OBS, MetricsRegistry, telemetry
from repro.sinr import SINRParameters
from repro.state import NetworkState

PARAMS = {
    "default": SINRParameters(),
    "noiseless": SINRParameters(noise=0.0),
    "rayleigh": SINRParameters(gain_model=RayleighFading(seed=7)),
    "shadowing": SINRParameters(gain_model=LogNormalShadowing(sigma_db=6.0, seed=3)),
    "alpha4": SINRParameters(alpha=4.0),
}
#: Few slot-pairs per round: several nodes are still active after one sweep.
FEW_PAIRS = AlgorithmConstants(slot_pairs_per_round_factor=0.5, min_slot_pairs_per_round=2)
STATE_FIELDS = ("active", "parent_pos", "parent_slot_pair", "parent_round", "stored_degree")


@pytest.fixture(autouse=True)
def _quiet_telemetry():
    """Every test starts and ends with telemetry off and a fresh registry."""
    previous = (OBS.enabled, OBS.registry)
    OBS.enabled = False
    OBS.registry = MetricsRegistry()
    yield
    OBS.enabled, OBS.registry = previous


def _at(xy) -> list[Node]:
    return [Node(i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


def _near(length: float, side: int) -> float:
    """``length``, or the float one ulp below (``side=-1``) or above (``+1``)."""
    if side == 0:
        return length
    return float(np.nextafter(length, 0.0 if side < 0 else math.inf))


def boundary_nodes(n: int, seed: int) -> list[Node]:
    """Pairs ``2**k`` apart or one ulp either side, in random directions
    (every third along an axis), the pairs 100 apart along a line."""
    rng = np.random.default_rng(seed)
    xy: list[tuple[float, float]] = []
    for pair in range((n + 1) // 2):
        x0, y0 = 100.0 * pair + rng.uniform(0, 1), rng.uniform(0, 1)
        length = _near(2.0 ** int(rng.integers(0, 6)), int(rng.integers(-1, 2)))
        angle = 0.0 if pair % 3 == 0 else rng.uniform(0, 2 * math.pi)
        xy += [(x0, y0), (x0 + length * math.cos(angle), y0 + length * math.sin(angle))]
    return _at(xy[:n])


def deploy(kind: str, n: int, seed: int) -> list[Node]:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return uniform_random(n, rng)
    if kind == "cluster":
        # A unit grid, jittered by at most 1e-3: every distance sits near 1,
        # sqrt(2) or 2.
        side = math.ceil(math.sqrt(n))
        grid = [(i % side, i // side) for i in range(n)]
        return _at(np.array(grid, dtype=float) + rng.uniform(0, 1e-3, (n, 2)))
    if kind == "collinear":
        gaps = [1.0, 1.5, 2.0, _near(2.0, -1), _near(2.0, 1), 4.0]
        xs = np.cumsum([0.0] + [gaps[k] for k in rng.integers(0, len(gaps), n - 1)])
        return _at((x, 0.0) for x in xs)
    return boundary_nodes(n, seed)


def build_both(nodes, params, constants, seed):
    """A full and an inner build of ``nodes`` from one store and seed, with
    the inner build's ``core.init.skipped_pairs``; a ``ProtocolError``
    message in place of a build that does not converge."""
    builder = InitialTreeBuilder(params, constants)
    store = NetworkState.for_nodes(nodes)
    try:
        full = builder.build(nodes, np.random.default_rng(seed), state=store)
    except ProtocolError as error:
        full = str(error)
    with telemetry() as registry:
        try:
            lean = builder.build(nodes, np.random.default_rng(seed), state=store, _inner=True)
        except ProtocolError as error:
            lean = str(error)
    return full, lean, registry.counter_totals().get("core.init.skipped_pairs", 0)


def assert_same_build(lean, full) -> None:
    for field in STATE_FIELDS:
        assert np.array_equal(getattr(lean.state, field), getattr(full.state, field)), field
    assert lean.stored_degrees == full.stored_degrees
    assert (lean.slots_used, lean.rounds_used, lean.sweeps_used, lean.delta) == (
        full.slots_used,
        full.rounds_used,
        full.sweeps_used,
        full.delta,
    )
    assert lean.trace.slots_used == 0


def class_bounds(round_index: int, alpha: float) -> tuple[float, float]:
    """The widened attenuation bounds of a round's length class."""
    lower, upper = 2.0 ** (round_index - 1), 2.0**round_index
    return lower**alpha * (1 - _WIDEN), upper**alpha * (1 + _WIDEN)


def inert_pairs(full, alpha: float) -> int:
    """Slot-pairs of a full build in which no broadcaster had an active node
    at an attenuation in the round's widened class (the active set read off
    the slot-pair each node retired in)."""
    xy = nodes_to_array(full.nodes)
    dx = np.subtract.outer(xy[:, 0], xy[:, 0])
    dy = np.subtract.outer(xy[:, 1], xy[:, 1])
    att = np.maximum(np.hypot(dx, dy), 1e-300) ** alpha
    position = {node.id: i for i, node in enumerate(full.nodes)}
    retired = np.where(full.state.active, np.iinfo(np.int64).max, full.state.parent_slot_pair)
    inert = 0
    for record in full.trace.records[::2]:
        pair = record.slot // 2
        low, high = class_bounds(int(record.label.split("round")[1].split(":")[0]), alpha)
        senders = [position[node_id] for node_id in record.transmitters]
        block = att[np.ix_(senders, np.flatnonzero(retired >= pair))]
        inert += not ((block >= low) & (block < high)).any()
    return inert


class TestInnerBuildParity:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "cluster", "collinear", "boundary"]),
        n=st.one_of(st.sampled_from([2, 3]), st.integers(min_value=4, max_value=48)),
        seed=st.integers(min_value=0, max_value=2**16),
        params=st.sampled_from(sorted(PARAMS)),
        constants=st.sampled_from([DEFAULT_CONSTANTS, FEW_PAIRS]),
    )
    def test_matches_full_build(self, kind, n, seed, params, constants):
        nodes = deploy(kind, n, seed)
        full, lean, skipped = build_both(nodes, PARAMS[params], constants, seed)
        if isinstance(full, str):
            assert lean == full
            return
        assert_same_build(lean, full)
        assert skipped == inert_pairs(full, PARAMS[params].alpha)

    @pytest.mark.parametrize("params", sorted(PARAMS))
    def test_multi_sweep_run(self, params):
        nodes = uniform_random(40, np.random.default_rng(3))
        full, lean, skipped = build_both(nodes, PARAMS[params], FEW_PAIRS, 11)
        assert full.sweeps_used > 1
        assert_same_build(lean, full)
        assert 0 < skipped == inert_pairs(full, PARAMS[params].alpha)

    @pytest.mark.parametrize("kind", ["uniform", "cluster", "collinear", "boundary"])
    def test_skips_pairs_and_steps_fewer_slots(self, kind):
        nodes = deploy(kind, 64, 5)
        full, lean, skipped = build_both(nodes, PARAMS["default"], DEFAULT_CONSTANTS, 6)
        assert_same_build(lean, full)
        assert 0 < skipped == inert_pairs(full, PARAMS["default"].alpha)
        with telemetry() as registry:
            InitialTreeBuilder(PARAMS["default"]).build(
                nodes, np.random.default_rng(6), state=NetworkState.for_nodes(nodes), _inner=True
            )
        # sim.slots counts stepped slots only: a skipped pair steps at most
        # its broadcast slot.
        assert registry.counter_totals()["sim.slots"] <= full.slots_used - skipped

    def test_results_identical_with_telemetry_on_and_off(self):
        nodes = deploy("uniform", 50, 2)
        builder = InitialTreeBuilder(PARAMS["default"])
        store = NetworkState.for_nodes(nodes)
        off = builder.build(nodes, np.random.default_rng(4), state=store, _inner=True)
        with telemetry() as registry:
            on = builder.build(nodes, np.random.default_rng(4), state=store, _inner=True)
        assert_same_build(on, off)
        assert registry.counter_totals()["core.init.skipped_pairs"] > 0
        assert "core.init.skipped_pairs" not in OBS.registry.counter_totals()


def hypot_pairs(nodes, active: np.ndarray, round_index: int) -> set[tuple[int, int]]:
    """Unordered active pairs that ``transmit``'s ``math.hypot`` class test admits."""
    lower, upper = 2.0 ** (round_index - 1), 2.0**round_index
    positions = np.flatnonzero(active).tolist()
    return {
        (a, b)
        for a in positions
        for b in positions
        if a < b and lower <= math.hypot(nodes[a].x - nodes[b].x, nodes[a].y - nodes[b].y) < upper
    }


def listed_pairs(nodes, params, active: np.ndarray, round_index: int) -> set[tuple[int, int]]:
    """The certificate's pairs when ``round_index`` opens over ``active``."""
    program = _InitProgram(nodes, params, DEFAULT_CONSTANTS, 0, NetworkState.for_nodes(nodes))
    program.state.active[:] = active
    program.begin_round(round_index, 0)
    first, second = program._pairs
    assert program.live == bool(first.size)
    return {(min(a, b), max(a, b)) for a, b in zip(first.tolist(), second.tolist())}


def split_pairs(alpha: float, count: int, seed: int) -> list[list[Node]]:
    """``count`` two-node deployments, each pair ``2**k`` or one ulp off it
    apart and such that the ``math.hypot`` class test admits it in a round
    whose unwidened bounds its ``d**alpha`` attenuation misses."""
    rng = np.random.default_rng(seed)
    size = 20_000
    length = 2.0 ** rng.integers(0, 6, size)
    side = rng.integers(-1, 2, size)
    length = np.where(side < 0, np.nextafter(length, 0.0), length)
    length = np.where(side > 0, np.nextafter(length, np.inf), length)
    angle = rng.uniform(0, 2 * math.pi, size)
    x0, y0 = rng.uniform(0, 1, size), rng.uniform(0, 1, size)
    x1, y1 = x0 + length * np.cos(angle), y0 + length * np.sin(angle)
    att = np.maximum(np.hypot(x0 - x1, y0 - y1), 1e-300) ** alpha
    deployments = []
    for k in range(size):
        distance = math.hypot(x0[k] - x1[k], y0[k] - y1[k])
        lower = 2.0 ** math.floor(math.log2(distance))
        if 1 <= lower <= distance < 2 * lower and not lower**alpha <= att[k] < (2 * lower) ** alpha:
            deployments.append(_at([(x0[k], y0[k]), (x1[k], y1[k])]))
            if len(deployments) == count:
                return deployments
    raise AssertionError(f"only {len(deployments)} of {count} split pairs")


class TestCertificate:
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "cluster", "collinear", "boundary"]),
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
        params=st.sampled_from(["default", "alpha4"]),
        round_index=st.integers(min_value=1, max_value=8),
    )
    def test_covers_every_hypot_pair(self, kind, n, seed, params, round_index):
        nodes = deploy(kind, n, seed)
        active = np.random.default_rng(seed).random(n) < 0.8
        assert hypot_pairs(nodes, active, round_index) <= listed_pairs(
            nodes, PARAMS[params], active, round_index
        )

    @pytest.mark.parametrize("params", ["default", "alpha4"])
    def test_covers_pairs_rounded_across_a_class_bound(self, params):
        # math.hypot and the store's d**alpha round these pairs to opposite
        # sides of a class bound; the widening absorbs the gap.
        alpha = PARAMS[params].alpha
        for nodes in split_pairs(alpha, 8, 9):
            active = np.ones(2, dtype=bool)
            admitted = [hypot_pairs(nodes, active, r) for r in range(1, 8)]
            assert sum(map(len, admitted)) == 1
            for round_index, pairs in enumerate(admitted, start=1):
                assert pairs <= listed_pairs(nodes, PARAMS[params], active, round_index)

    def test_lists_only_active_pairs_and_drops_retired_ends(self):
        nodes = deploy("cluster", 30, 1)
        store = NetworkState.for_nodes(nodes)
        program = _InitProgram(nodes, PARAMS["default"], DEFAULT_CONSTANTS, 0, store)
        program.state.active[::3] = False
        program.begin_round(1, 0)
        first, second = program._pairs
        assert first.size and program.state.active[first].all()
        assert program.state.active[second].all()
        # Retiring every listed end leaves no pair and ends the round.
        program._adopt(1, np.unique(np.concatenate(program._pairs)), np.zeros(1, np.intp))
        assert not program._pairs[0].size and not program._partner.any()
        assert not program.live
