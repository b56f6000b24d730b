"""Tests for repro.core.bitree."""

from __future__ import annotations

import pytest

from repro.core import BiTree, Schedule
from repro.exceptions import ScheduleError
from repro.links import Link

from .conftest import make_node
from .oracles.validation import path_to_root


def _simple_tree() -> tuple[BiTree, list]:
    """A 5-node tree: 0 -> 2, 1 -> 2, 2 -> 4, 3 -> 4, rooted at 4."""
    nodes = [make_node(i, float(i), 0.0) for i in range(5)]
    parent = {0: 2, 1: 2, 2: 4, 3: 4}
    slots = {0: 0, 1: 1, 2: 2, 3: 0}
    return BiTree.from_parent_map(nodes, 4, parent, slots), nodes


class TestConstruction:
    def test_from_parent_map(self):
        tree, _ = _simple_tree()
        assert tree.root_id == 4
        assert tree.size == 5
        assert tree.parent_of(0) == 2
        assert tree.parent_of(4) is None

    def test_unknown_root_rejected(self):
        nodes = [make_node(0, 0, 0)]
        with pytest.raises(ScheduleError):
            BiTree.from_parent_map(nodes, 99, {})

    def test_unknown_parent_rejected(self):
        nodes = [make_node(0, 0, 0), make_node(1, 1, 0)]
        with pytest.raises(ScheduleError):
            BiTree.from_parent_map(nodes, 0, {1: 7})

    def test_single_node_tree(self):
        only = make_node(0, 0, 0)
        tree = BiTree.from_parent_map([only], 0, {})
        tree.validate()
        assert tree.size == 1
        assert tree.is_strongly_connected()


class TestStructure:
    def test_children_and_depth(self):
        tree, _ = _simple_tree()
        children = tree.children_map()
        assert sorted(children[2]) == [0, 1]
        assert sorted(children[4]) == [2, 3]
        assert tree.depths()[0] == 2
        assert tree.depth() == 2

    def test_path_to_root(self):
        tree, _ = _simple_tree()
        assert path_to_root(tree, 0) == [0, 2, 4]
        assert path_to_root(tree, 4) == [4]

    def test_subtree_nodes(self):
        tree, _ = _simple_tree()
        assert tree.subtree_nodes(2) == {0, 1, 2}
        assert tree.subtree_nodes(4) == {0, 1, 2, 3, 4}

    def test_degrees(self):
        tree, _ = _simple_tree()
        degrees = tree.degrees()
        assert degrees[4] == 2
        assert degrees[2] == 3
        assert tree.max_degree() == 3

    def test_links_and_duals(self):
        tree, nodes = _simple_tree()
        aggregation = tree.aggregation_links()
        assert len(aggregation) == 4
        assert Link(nodes[0], nodes[2]) in aggregation
        dissemination = tree.dissemination_links()
        assert Link(nodes[2], nodes[0]) in dissemination
        assert len(tree.all_links()) == 8

    def test_strong_connectivity(self):
        tree, _ = _simple_tree()
        assert tree.is_strongly_connected()


class TestSchedules:
    def test_dissemination_schedule_is_reversed(self):
        tree, nodes = _simple_tree()
        aggregation = tree.aggregation_schedule
        dissemination = tree.dissemination_schedule
        max_slot = max(slot for _, slot in aggregation.items())
        link = Link(nodes[0], nodes[2])
        assert dissemination.slot_of(link.dual) == max_slot - aggregation.slot_of(link)

    def test_validate_passes_for_well_formed_tree(self):
        tree, _ = _simple_tree()
        tree.validate()

    def test_validate_detects_cycles(self):
        nodes = [make_node(i, float(i), 0.0) for i in range(3)]
        tree = BiTree(
            nodes={node.id: node for node in nodes},
            root_id=2,
            parent={0: 1, 1: 0},
            aggregation_schedule=Schedule(
                {Link(nodes[0], nodes[1]): 0, Link(nodes[1], nodes[0]): 1}
            ),
        )
        with pytest.raises(ScheduleError):
            tree.validate()

    def test_validate_detects_missing_parent(self):
        nodes = [make_node(i, float(i), 0.0) for i in range(3)]
        tree = BiTree(
            nodes={node.id: node for node in nodes},
            root_id=2,
            parent={0: 2},
            aggregation_schedule=Schedule({Link(nodes[0], nodes[2]): 0}),
        )
        with pytest.raises(ScheduleError):
            tree.validate()

    def test_aggregation_order_valid(self):
        tree, _ = _simple_tree()
        tree.validate_aggregation_order()

    def test_aggregation_order_violation_detected(self):
        nodes = [make_node(i, float(i), 0.0) for i in range(3)]
        # Chain 0 -> 1 -> 2 where the deeper link is scheduled *after* its parent.
        tree = BiTree.from_parent_map(nodes, 2, {0: 1, 1: 2}, slots={0: 5, 1: 1})
        with pytest.raises(ScheduleError):
            tree.validate_aggregation_order()

    def test_depth_of_disconnected_node_raises(self):
        nodes = [make_node(i, float(i), 0.0) for i in range(3)]
        tree = BiTree(
            nodes={node.id: node for node in nodes},
            root_id=2,
            parent={0: 1, 1: 0},
            aggregation_schedule=Schedule(),
        )
        with pytest.raises(ScheduleError):
            path_to_root(tree, 0)
        with pytest.raises(ScheduleError, match="not connected"):
            tree.depths()
