"""TreeViaCapacity reads Init's arrays; Init's result builds its objects lazily.

Each iteration takes ``T(M)`` off Init's parent array (one mask over the
tree links' endpoint degrees) and builds ``Link`` objects and link rounds
only for the candidates.  ``tests/oracles/tvc.py`` keeps the iteration that
went through the Init result's bi-tree, ``LinkSet`` and
``degree_bounded_subset``; both must make the same draws and build the same
tree, powers and iteration records, in both power modes, on empty ``T(M)``
and when the selection comes back empty.

``InitialTreeResult`` keeps the converged per-node arrays, and its tree,
powers, link rounds and stored degrees must equal the values the eager
extraction built (``tests/oracles/init.py``), each built once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_CONSTANTS
from repro.core import DistrCapResult, DistrCapSelector, InitialTreeBuilder, TreeViaCapacity
from repro.core.tree_subset import degree_bounded_mask, degree_bounded_subset
from repro.geometry import Node, uniform_random
from repro.links import Link, LinkSet
from repro.sinr import SINRParameters

from .oracles import ReferenceTreeViaCapacity, eager_result_values

PARAMS = SINRParameters()
LAZY = ("tree", "power", "link_rounds", "stored_degrees")


def _nodes(n: int, seed: int) -> list[Node]:
    """``n`` uniform nodes whose ids are offset and shuffled."""
    placed = uniform_random(n, np.random.default_rng(seed))
    ids = 300 + 3 * np.random.default_rng(seed + 1).permutation(n)
    return [Node(id=int(i), position=node.position) for i, node in zip(ids, placed)]


def assert_same_tree(got, expected) -> None:
    assert (got.root_id, got.parent, got.slot_stamps()) == (
        expected.root_id,
        expected.parent,
        expected.slot_stamps(),
    )
    assert list(got.aggregation_schedule.items()) == list(expected.aggregation_schedule.items())
    assert got.nodes == expected.nodes


def assert_same_power(got, expected) -> None:
    assert list(got.as_dict().items()) == list(expected.as_dict().items())
    if expected.fallback is None:
        assert got.fallback is None
    else:
        assert got.fallback.level == expected.fallback.level


def _run_both(nodes, seed, power_mode, constants=DEFAULT_CONSTANTS):
    """The array-read build and the oracle's, and each rng's state afterwards."""
    results = []
    for cls in (TreeViaCapacity, ReferenceTreeViaCapacity):
        rng = np.random.default_rng(seed)
        result = cls(PARAMS, constants, power_mode=power_mode).build(nodes, rng)
        results.append((result, rng.bit_generator.state))
    return results


def assert_same_tvc(got, expected) -> None:
    (result, rng_state), (reference, reference_rng_state) = got, expected
    assert_same_tree(result.tree, reference.tree)
    assert_same_power(result.power, reference.power)
    assert result.iterations == reference.iterations
    assert (
        result.power_mode,
        result.construction_slots,
        result.delta,
        result.aggregation_feasible,
        result.dissemination_feasible,
    ) == (
        reference.power_mode,
        reference.construction_slots,
        reference.delta,
        reference.aggregation_feasible,
        reference.dissemination_feasible,
    )
    assert rng_state == reference_rng_state


class TestMaskMatchesTheLinkSubset:
    @settings(max_examples=60, deadline=None)
    @given(
        parents=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        rho=st.integers(1, 5),
    )
    def test_mask_selects_the_subset(self, parents, rho):
        # A random recursive tree: node k + 1 hangs off one of 0..k.
        n = len(parents) + 1
        children = np.arange(1, n)
        parent_pos = np.array([p % (k + 1) for k, p in enumerate(parents)])
        nodes = _nodes(n, len(parents))
        links = LinkSet(Link(nodes[c], nodes[p]) for c, p in zip(children, parent_pos))
        mask = degree_bounded_mask(children, parent_pos, n, rho)
        expected = degree_bounded_subset(links, rho).subset
        assert [links[k] for k in np.flatnonzero(mask)] == list(expected)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError, match="rho"):
            degree_bounded_mask(np.array([1]), np.array([0]), 2, 0)


class TestParityWithTheObjectIteration:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 5, 9, 17, 28]),
        seed=st.integers(0, 10_000),
        power_mode=st.sampled_from(["arbitrary", "mean"]),
    )
    def test_small_deployments(self, n, seed, power_mode):
        got, expected = _run_both(_nodes(n, seed), seed, power_mode)
        assert_same_tvc(got, expected)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(3, 24),
        seed=st.integers(0, 10_000),
        power_mode=st.sampled_from(["arbitrary", "mean"]),
    )
    def test_empty_degree_bounded_subset(self, n, seed, power_mode):
        # With rho = 1 only leaves are in M, and no tree over 3 or more
        # nodes links two leaves: T(M) is empty, every tree link a candidate.
        constants = DEFAULT_CONSTANTS.with_overrides(degree_cap_rho=1)
        got, expected = _run_both(_nodes(n, seed), seed, power_mode, constants)
        assert_same_tvc(got, expected)
        for record in got[0].iterations:
            if record.population >= 3:
                assert record.candidate_links == record.tree_links

    @pytest.mark.parametrize("rho", [1, DEFAULT_CONSTANTS.degree_cap_rho])
    def test_empty_selection_falls_back_to_the_shortest_tree_link(self, rho):
        def nothing(self, candidates, rng, **kwargs):
            return DistrCapResult(LinkSet(), 2, 1, True)

        constants = DEFAULT_CONSTANTS.with_overrides(degree_cap_rho=rho)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DistrCapSelector, "select", nothing)
            got, expected = _run_both(_nodes(12, 4), 4, "arbitrary", constants)
        assert_same_tvc(got, expected)
        assert all(record.selected_links == 1 for record in got[0].iterations)

    @pytest.mark.parametrize("power_mode", ["arbitrary", "mean"])
    def test_512_nodes(self, power_mode):
        got, expected = _run_both(_nodes(512, 7), 7, power_mode)
        assert_same_tvc(got, expected)


class TestLazyInitResult:
    @pytest.mark.parametrize("n", [1, 2, 30])
    def test_views_equal_the_eager_values_and_are_built_once(self, n):
        result = InitialTreeBuilder(PARAMS).build(_nodes(n, n), np.random.default_rng(n))
        eager = eager_result_values(result)
        first = {name: getattr(result, name) for name in LAZY}
        assert_same_tree(first["tree"], eager["tree"])
        assert_same_power(first["power"], eager["power"])
        assert list(first["link_rounds"].items()) == list(eager["link_rounds"].items())
        assert list(first["stored_degrees"].items()) == list(eager["stored_degrees"].items())
        for name in LAZY:
            assert getattr(result, name) is first[name], name

    def test_link_positions_are_the_tree_links(self):
        nodes = _nodes(40, 5)
        result = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(5))
        children, parents = result.link_positions()
        links = [(nodes[c].id, nodes[p].id) for c, p in zip(children.tolist(), parents.tolist())]
        assert links == [link.endpoint_ids for link in result.tree.aggregation_links()]
