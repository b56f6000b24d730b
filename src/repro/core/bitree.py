"""Bi-trees: aggregation + dissemination trees sharing links and schedule.

Definition 1 of the paper: a *bi-tree* is an aggregation tree (a convergecast
tree whose schedule respects the leaf-to-root order) together with the
complementary dissemination tree, which uses the same links in the opposite
direction with the schedule reversed.  With a bi-tree, aggregation, broadcast
and any pairwise communication complete within (twice) the schedule length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..exceptions import ScheduleError
from ..geometry import Node
from ..links import Link, LinkSet
from .schedule import Schedule

__all__ = ["BiTree"]


def _reach(adjacency: Mapping[int, Iterable[int]], start: int) -> list[int]:
    """Ids reachable from ``start`` along ``adjacency``, in BFS order."""
    order = [start]
    seen = {start}
    for node_id in order:
        for other in adjacency.get(node_id, ()):
            if other not in seen:
                seen.add(other)
                order.append(other)
    return order


@dataclass
class BiTree:
    """A rooted spanning bi-tree over a set of wireless nodes.

    Attributes:
        nodes: mapping from node id to node, covering every spanned node.
        root_id: id of the root (the last node to remain active).
        parent: mapping from non-root node id to its parent's id.
        aggregation_schedule: slot assignment of the child->parent links.
    """

    nodes: dict[int, Node]
    root_id: int
    parent: dict[int, int]
    aggregation_schedule: Schedule = field(default_factory=Schedule)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_parent_map(
        cls,
        nodes: Sequence[Node] | Iterable[Node],
        root_id: int,
        parent: Mapping[int, int],
        slots: Mapping[int, int] | None = None,
    ) -> "BiTree":
        """Build a bi-tree from a parent map and optional per-node slot stamps.

        Args:
            nodes: all spanned nodes.
            root_id: id of the root node.
            parent: maps each non-root node id to its parent id.
            slots: optional map from a non-root node id to the schedule slot of
                its outgoing (child -> parent) link.  Nodes missing from the
                map get slot 0.
        """
        node_map = {node.id: node for node in nodes}
        if root_id not in node_map:
            raise ScheduleError(f"root id {root_id} is not among the nodes")
        schedule = Schedule()
        for child_id, parent_id in parent.items():
            if child_id not in node_map or parent_id not in node_map:
                raise ScheduleError(f"parent map references unknown node ({child_id}->{parent_id})")
            link = Link(node_map[child_id], node_map[parent_id])
            slot = 0 if slots is None else int(slots.get(child_id, 0))
            schedule.assign(link, slot)
        return cls(
            nodes=node_map,
            root_id=root_id,
            parent=dict(parent),
            aggregation_schedule=schedule,
        )

    # -- basic structure ----------------------------------------------------

    @property
    def root(self) -> Node:
        """The root node."""
        return self.nodes[self.root_id]

    @property
    def size(self) -> int:
        """Number of spanned nodes."""
        return len(self.nodes)

    def aggregation_links(self) -> LinkSet:
        """The child -> parent links (the convergecast tree)."""
        return self.aggregation_schedule.links()

    def dissemination_links(self) -> LinkSet:
        """The parent -> child links (the broadcast tree)."""
        return self.aggregation_links().duals()

    def all_links(self) -> LinkSet:
        """Both directions of every tree edge."""
        return self.aggregation_links().union(self.dissemination_links())

    @property
    def dissemination_schedule(self) -> Schedule:
        """Schedule of the dissemination tree: the duals, same slots in reverse order."""
        schedule = self.aggregation_schedule
        top = schedule.span - 1
        return Schedule({link.dual: top - slot for link, slot in schedule.items()})

    def slot_stamps(self) -> dict[int, int]:
        """Per-child slot stamp of its outgoing (child -> parent) link.

        Each non-root node has exactly one outgoing aggregation link, so the
        schedule is equivalently a map keyed by the child id; repair and the
        dynamics driver rebuild trees from this form.
        """
        return {link.sender.id: slot for link, slot in self.aggregation_schedule.items()}

    def children_map(self) -> dict[int, list[int]]:
        """Children of every node that has any, in parent-map order."""
        children: dict[int, list[int]] = {}
        for child, parent in self.parent.items():
            children.setdefault(parent, []).append(child)
        return children

    def parent_of(self, node_id: int) -> int | None:
        """Parent id of ``node_id`` (``None`` for the root)."""
        if node_id == self.root_id:
            return None
        return self.parent.get(node_id)

    def depths(self) -> dict[int, int]:
        """Hop depth of every id the root reaches, by one BFS down the children map.

        Raises:
            ScheduleError: if some node is not connected to the root.
        """
        order = _reach(self.children_map(), self.root_id)
        depth = {self.root_id: 0}
        for node_id in order[1:]:
            depth[node_id] = depth[self.parent[node_id]] + 1
        unreached = self.nodes.keys() - depth.keys()
        if unreached:
            raise ScheduleError(f"node {min(unreached)} is not connected to the root")
        return depth

    def depth(self) -> int:
        """Maximum node depth (tree height in hops)."""
        depths = self.depths()
        return max((depths[node_id] for node_id in self.nodes), default=0)

    def subtree_nodes(self, node_id: int) -> set[int]:
        """Ids of all descendants of ``node_id``, including itself."""
        return set(_reach(self.children_map(), node_id))

    def degrees(self) -> dict[int, int]:
        """Undirected tree degree of each node (children count + 1 for parent)."""
        degree = {node_id: 0 for node_id in self.nodes}
        for child, parent in self.parent.items():
            degree[child] += 1
            degree[parent] += 1
        return degree

    def max_degree(self) -> int:
        """Largest undirected degree in the tree."""
        return max(self.degrees().values(), default=0)

    # -- graph views ---------------------------------------------------------

    def is_strongly_connected(self) -> bool:
        """Whether the bidirectional link set strongly connects all nodes.

        Over the nodes plus every scheduled link's endpoints; each link stands
        for both directions, so one undirected BFS decides it.
        """
        if len(self.nodes) <= 1:
            return True
        neighbours: dict[int, list[int]] = {node_id: [] for node_id in self.nodes}
        for link in self.aggregation_schedule:
            sender, receiver = link.endpoint_ids
            neighbours.setdefault(sender, []).append(receiver)
            neighbours.setdefault(receiver, []).append(sender)
        return len(_reach(neighbours, next(iter(neighbours)))) == len(neighbours)

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check the structural bi-tree invariants.

        Raises:
            ScheduleError: if the parent map is not a spanning in-tree rooted
                at ``root_id`` or the schedule's links are not exactly the
                tree links.
        """
        if self.root_id not in self.nodes:
            raise ScheduleError("root id missing from node map")
        if self.root_id in self.parent:
            raise ScheduleError("root must not have a parent")
        expected_children = set(self.nodes) - {self.root_id}
        if set(self.parent) != expected_children:
            missing = expected_children - set(self.parent)
            extra = set(self.parent) - expected_children
            raise ScheduleError(
                f"parent map mismatch: missing={sorted(missing)[:5]} extra={sorted(extra)[:5]}"
            )
        self.depths()  # raises on cycles / disconnection
        tree_links = [Link(self.nodes[c], self.nodes[p]) for c, p in self.parent.items()]
        self.aggregation_schedule.validate_covers(tree_links)
        extra = len(self.aggregation_schedule) - len(tree_links)
        if extra:
            raise ScheduleError(f"{extra} scheduled links are not tree links")

    def validate_aggregation_order(self) -> None:
        """Check the aggregation-tree scheduling order.

        Every link (x, y) must be scheduled strictly after every link whose
        sender is a proper descendant of x.  Strict ``<`` is transitive, so
        comparing each link with its direct children's links suffices.

        Raises:
            ScheduleError: when the order is violated, a tree link is not
                scheduled, or the parent map names an id outside ``nodes``.
        """
        slot: dict[int, int] = {}
        for child_id, parent_id in self.parent.items():
            if child_id not in self.nodes or parent_id not in self.nodes:
                raise ScheduleError(f"parent map references unknown node ({child_id}->{parent_id})")
            link = Link(self.nodes[child_id], self.nodes[parent_id])
            slot[child_id] = self.aggregation_schedule.slot_of(link)
        for child_id, parent_id in self.parent.items():
            if parent_id in slot and slot[child_id] >= slot[parent_id]:
                raise ScheduleError(
                    f"aggregation order violated: link {child_id}->{parent_id} (slot "
                    f"{slot[child_id]}) must precede its parent's (slot {slot[parent_id]})"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BiTree(n={self.size}, root={self.root_id}, "
            f"schedule_length={self.aggregation_schedule.length})"
        )
