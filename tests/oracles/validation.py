"""The quadratic bi-tree checks and the networkx MST (oracles of ``core/bitree.py``).

These are the checks ``BiTree`` ran before they became linear:

* :func:`validate_reference` walks every node's parent chain to the root;
* :func:`validate_aggregation_order_reference` compares every link with the
  link of every proper descendant, rebuilding the subtree each time;
* :func:`is_strongly_connected_reference` builds a networkx digraph of both
  directions of every scheduled link;
* :func:`euclidean_mst_tree_reference` builds the Euclidean MST with networkx
  (Kruskal) and orients it with ``bfs_predecessors``.

The linear versions must give the same verdict and exception type, with two
deliberate exceptions: ``BiTree.validate`` also rejects scheduled links that
are not tree links, and a parent id outside ``nodes`` is a ``ScheduleError``
where :func:`validate_aggregation_order_reference` raises ``KeyError``.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.core.bitree import BiTree
from repro.exceptions import ProtocolError, ScheduleError
from repro.geometry import Node
from repro.links import Link

__all__ = [
    "euclidean_mst_tree_reference",
    "is_strongly_connected_reference",
    "path_to_root",
    "validate_aggregation_order_reference",
    "validate_reference",
]


def path_to_root(tree: BiTree, node_id: int) -> list[int]:
    """Node ids on the parent chain from ``node_id`` to the root, inclusive.

    Raises:
        ScheduleError: if the chain does not reach the root (cycle or
            disconnection).
    """
    path = [node_id]
    seen = {node_id}
    while path[-1] != tree.root_id:
        nxt = tree.parent.get(path[-1])
        if nxt is None or nxt in seen:
            raise ScheduleError(f"node {node_id} is not connected to the root")
        path.append(nxt)
        seen.add(nxt)
    return path


def validate_reference(tree: BiTree) -> None:
    """The structural invariants, checked with one parent-chain walk per node."""
    if tree.root_id not in tree.nodes:
        raise ScheduleError("root id missing from node map")
    if tree.root_id in tree.parent:
        raise ScheduleError("root must not have a parent")
    expected_children = set(tree.nodes) - {tree.root_id}
    if set(tree.parent) != expected_children:
        missing = expected_children - set(tree.parent)
        extra = set(tree.parent) - expected_children
        raise ScheduleError(
            f"parent map mismatch: missing={sorted(missing)[:5]} extra={sorted(extra)[:5]}"
        )
    for node_id in tree.nodes:
        path_to_root(tree, node_id)  # raises on cycles / disconnection
    tree.aggregation_schedule.validate_covers(
        Link(tree.nodes[c], tree.nodes[p]) for c, p in tree.parent.items()
    )


def validate_aggregation_order_reference(tree: BiTree) -> None:
    """Every link scheduled strictly after the link of every proper descendant."""
    for child_id, parent_id in tree.parent.items():
        link = Link(tree.nodes[child_id], tree.nodes[parent_id])
        own_slot = tree.aggregation_schedule.slot_of(link)
        for descendant in tree.subtree_nodes(child_id) - {child_id}:
            descendant_parent = tree.parent[descendant]
            descendant_link = Link(tree.nodes[descendant], tree.nodes[descendant_parent])
            descendant_slot = tree.aggregation_schedule.slot_of(descendant_link)
            if descendant_slot >= own_slot:
                raise ScheduleError(
                    f"aggregation order violated: link {descendant_link.endpoint_ids} "
                    f"(slot {descendant_slot}) must precede {link.endpoint_ids} (slot {own_slot})"
                )


def is_strongly_connected_reference(tree: BiTree) -> bool:
    """Strong connectivity of a networkx digraph over both link directions."""
    if len(tree.nodes) <= 1:
        return True
    graph = nx.DiGraph()
    graph.add_nodes_from(tree.nodes.keys())
    for link in tree.all_links():
        graph.add_edge(link.sender.id, link.receiver.id, length=link.length)
    return nx.is_strongly_connected(graph)


def euclidean_mst_tree_reference(nodes: Sequence[Node], root_id: int | None = None) -> BiTree:
    """The networkx Euclidean MST, oriented towards the root by BFS."""
    node_list = list(nodes)
    if not node_list:
        raise ProtocolError("cannot build an MST on zero nodes")
    by_id = {node.id: node for node in node_list}
    if root_id is None:
        root_id = min(by_id)
    if root_id not in by_id:
        raise ProtocolError(f"unknown root id {root_id}")
    if len(node_list) == 1:
        return BiTree.from_parent_map(node_list, root_id, {})

    graph = nx.Graph()
    graph.add_nodes_from(by_id)
    for i, first in enumerate(node_list):
        for second in node_list[i + 1 :]:
            graph.add_edge(first.id, second.id, weight=first.distance_to(second))
    mst = nx.minimum_spanning_tree(graph, weight="weight")

    parent: dict[int, int] = {}
    depth: dict[int, int] = {root_id: 0}
    for child, parent_id in nx.bfs_predecessors(mst, root_id):
        parent[child] = parent_id
        depth[child] = depth[parent_id] + 1
    max_depth = max(depth.values(), default=0)
    slots = {child: max_depth - depth[child] for child in parent}
    return BiTree.from_parent_map(node_list, root_id, parent, slots)
