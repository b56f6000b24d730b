"""The linear-time bi-tree checks against their quadratic and networkx oracles.

``BiTree.validate``, ``validate_aggregation_order`` and ``is_strongly_connected``
must give the oracle's verdict and exception type on arbitrary parent maps and
schedules: valid trees, cycles, orphans, dangling parents, perturbed slot
stamps, missing and extra schedule entries.  Two differences are deliberate:
``validate`` rejects scheduled links that are not tree links, and an id
outside ``nodes`` is a ``ScheduleError`` where the order oracle raises
``KeyError``.  The NumPy Prim MST is pinned against networkx's.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import euclidean_mst_tree
from repro.core import BiTree, Schedule
from repro.exceptions import ScheduleError
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
from repro.geometry import clustered, grid, uniform_random
from repro.links import Link

from .conftest import make_node
from .oracles.validation import (
    euclidean_mst_tree_reference,
    is_strongly_connected_reference,
    path_to_root,
    validate_aggregation_order_reference,
    validate_reference,
)

#: Ids outside every generated node set, used for dangling parents and
#: extra links to strangers.
_OUTSIDE = (97, 98, 99)


def _outcome(check) -> type | None:
    """The exception type ``check()`` raises, or ``None`` if it returns."""
    try:
        check()
    except Exception as error:  # noqa: BLE001 - the type is the verdict
        return type(error)
    return None


@st.composite
def bitrees(draw) -> BiTree:
    """A random tree, then random damage to its parent map and schedule."""
    n = draw(st.integers(1, 10))
    ids = list(range(n))
    nodes = {i: make_node(i, float(i), float(i % 3)) for i in ids}
    strangers = {i: make_node(i, float(i), -1.0) for i in _OUTSIDE}
    order = draw(st.permutations(ids))
    root = order[0]
    parent = {child: order[draw(st.integers(0, k - 1))] for k, child in enumerate(order) if k}
    # Each node is stamped after everything drawn later, so the tree's
    # stamps are a valid aggregation order; the root's stamp only matters
    # once damage gives it a parent.
    slots = {node: n - k for k, node in enumerate(order)}

    everyone = ids + list(_OUTSIDE)
    for kind, node, target in draw(
        st.lists(
            st.tuples(
                st.sampled_from(["reparent", "orphan", "root_parent", "slot"]),
                st.sampled_from(ids),
                st.sampled_from(everyone),
            ),
            max_size=3,
        )
    ):
        if kind == "reparent" and node != root and node != target:
            parent[node] = target
        elif kind == "orphan":
            parent.pop(node, None)
        elif kind == "root_parent" and target != root:
            parent[root] = target
        elif kind == "slot":
            slots[node] = target

    known = {**nodes, **strangers}
    unscheduled = draw(st.sets(st.sampled_from(ids), max_size=2))
    schedule = Schedule()
    for child, parent_id in parent.items():
        if child not in unscheduled:
            schedule.assign(Link(known[child], known[parent_id]), slots.get(child, 0))
    for sender, receiver in draw(
        st.lists(st.tuples(st.sampled_from(everyone), st.sampled_from(everyone)), max_size=2)
    ):
        if sender != receiver:
            schedule.assign(Link(known[sender], known[receiver]), draw(st.integers(0, n)))
    return BiTree(nodes=nodes, root_id=root, parent=parent, aggregation_schedule=schedule)


def _has_non_tree_link(tree: BiTree) -> bool:
    tree_links = set(tree.parent.items())
    return any(link.endpoint_ids not in tree_links for link in tree.aggregation_schedule)


class TestParityWithOracles:
    @settings(max_examples=400, deadline=None)
    @given(bitrees())
    def test_validate_matches_oracle(self, tree):
        new = _outcome(tree.validate)
        oracle = _outcome(lambda: validate_reference(tree))
        if new != oracle:
            # The one deliberate difference: links outside the tree.
            assert (oracle, new) == (None, ScheduleError)
            assert _has_non_tree_link(tree)
        if new is None:
            # A valid bi-tree stores each edge both ways, so it is strongly
            # connected; pinned here rather than assumed.
            assert tree.is_strongly_connected()

    @settings(max_examples=400, deadline=None)
    @given(bitrees())
    def test_aggregation_order_matches_oracle(self, tree):
        new = _outcome(tree.validate_aggregation_order)
        oracle = _outcome(lambda: validate_aggregation_order_reference(tree))
        if new != oracle:
            # The one deliberate difference: unknown ids are typed.
            assert (oracle, new) == (KeyError, ScheduleError)

    @settings(max_examples=400, deadline=None)
    @given(bitrees())
    def test_strong_connectivity_matches_oracle(self, tree):
        assert tree.is_strongly_connected() == is_strongly_connected_reference(tree)


class TestRegressions:
    def _chain(self) -> tuple[BiTree, list]:
        nodes = [make_node(i, float(i), 0.0) for i in range(4)]
        tree = BiTree.from_parent_map(nodes, 3, {0: 1, 1: 2, 2: 3}, slots={0: 0, 1: 1, 2: 2})
        return tree, nodes

    def test_extra_scheduled_link_rejected(self):
        tree, nodes = self._chain()
        tree.validate()
        tree.aggregation_schedule.assign(Link(make_node(7, 7.0, 0.0), nodes[0]), 3)
        with pytest.raises(ScheduleError, match="not tree links"):
            tree.validate()
        # Connectivity keeps its semantics: node 7 joins through its link.
        assert tree.is_strongly_connected()

    def test_dual_of_tree_link_rejected(self):
        tree, nodes = self._chain()
        tree.aggregation_schedule.assign(Link(nodes[1], nodes[0]), 3)
        with pytest.raises(ScheduleError, match="not tree links"):
            tree.validate()

    def test_dangling_parent_is_a_schedule_error(self):
        nodes = [make_node(i, float(i), 0.0) for i in range(4)]
        tree = BiTree(
            nodes={node.id: node for node in nodes},
            root_id=3,
            parent={0: 1, 1: 2, 2: 99},
            aggregation_schedule=Schedule({Link(nodes[0], nodes[1]): 0, Link(nodes[1], nodes[2]): 1}),
        )
        with pytest.raises(ScheduleError, match="unknown node"):
            tree.validate_aggregation_order()
        with pytest.raises(ScheduleError):
            tree.validate()

    def test_scheduled_parent_chain_without_links_is_not_connected(self):
        tree, _ = self._chain()
        empty = BiTree(nodes=tree.nodes, root_id=tree.root_id, parent=tree.parent)
        assert not empty.is_strongly_connected()
        assert not is_strongly_connected_reference(empty)

    def test_depths_match_depth_of(self):
        tree, _ = self._chain()
        assert tree.depths() == {
            node_id: len(path_to_root(tree, node_id)) - 1 for node_id in tree.nodes
        }
        assert tree.depth() == 3


class TestPrimMatchesNetworkx:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "deploy",
        [lambda rng: uniform_random(120, rng), lambda rng: clustered(120, rng)],
        ids=["uniform", "clustered"],
    )
    def test_same_parent_map_without_ties(self, deploy, seed):
        nodes = deploy(np.random.default_rng(seed))
        tree = euclidean_mst_tree(nodes)
        reference = euclidean_mst_tree_reference(nodes)
        assert list(tree.parent.items()) == list(reference.parent.items())
        assert tree.slot_stamps() == reference.slot_stamps()

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_ties_give_an_equal_weight_valid_tree(self, seed):
        nodes = grid(100, np.random.default_rng(seed), spacing=2.0)
        root_id = nodes[37].id
        tree = euclidean_mst_tree(nodes, root_id=root_id)
        reference = euclidean_mst_tree_reference(nodes, root_id=root_id)
        tree.validate()
        tree.validate_aggregation_order()
        weight = sum(link.length for link in tree.aggregation_links())
        assert weight == pytest.approx(sum(link.length for link in reference.aggregation_links()))


class TestCentralizedScheduleUnchanged:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_f1_quick_rows(self, workers):
        # Rows of the quadratic-helper implementation; the MST and its
        # ordered first-fit schedule must not move.  The other columns
        # follow the protocols' coins.
        result = ALL_EXPERIMENTS["F1"](ExperimentConfig.quick().with_overrides(workers=workers))
        assert result.rows == [
            {
                "n": 24,
                "init_stamps": 23.0,
                "uniform_ff": 8.0,
                "mean_reschedule": 18.0,
                "tvc_mean": 17.0,
                "tvc_arbitrary": 13.0,
                "centralized_mst": 16.0,
                "naive_tdma": 23.0,
            },
            {
                "n": 48,
                "init_stamps": 30.0,
                "uniform_ff": 11.0,
                "mean_reschedule": 26.0,
                "tvc_mean": 26.0,
                "tvc_arbitrary": 16.0,
                "centralized_mst": 27.0,
                "naive_tdma": 47.0,
            },
        ]
