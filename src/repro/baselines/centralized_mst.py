"""Centralized connectivity baseline (the [11]-style comparator).

The strongest centralized result the paper compares itself against
(Halldorsson & Mitra, SODA 2012 [11]) schedules a spanning structure in
``O(log n)`` slots with power control and ``O(log n (log log Delta + log n))``
slots with oblivious power.  Its structure is the Euclidean minimum spanning
tree, which is O(1)-sparse; the schedule comes from the sparsity/amenability
machinery.

We reproduce the comparator's *shape* with full knowledge of the instance:

* build the Euclidean MST (Prim over the pairwise distance matrix);
* orient it towards a root (yielding an aggregation tree);
* schedule it centrally with first-fit under (a) solved power control per slot
  group via iterative refinement, or (b) an oblivious power scheme.

This is the quality target the distributed algorithms are measured against in
experiment F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..geometry import Node
from ..links import Link, LinkSet
from ..sinr import (
    AffectanceAccumulator,
    LinearPower,
    MeanPower,
    PositionedLinks,
    PowerAssignment,
    SINRParameters,
    UniformPower,
)
from ..core.bitree import BiTree
from ..core.capacity import first_fit_schedule
from ..core.schedule import Schedule

__all__ = ["CentralizedBaselineResult", "euclidean_mst_tree", "CentralizedMSTBaseline"]


@dataclass(frozen=True)
class CentralizedBaselineResult:
    """Outcome of the centralized baseline.

    Attributes:
        tree: the MST-based aggregation tree (as a bi-tree).
        schedule: the centrally computed schedule of its aggregation links.
        power: the power assignment the schedule was computed for.
        power_scheme: name of the scheme ("mean", "linear", "uniform").
    """

    tree: BiTree
    schedule: Schedule
    power: PowerAssignment
    power_scheme: str

    @property
    def schedule_length(self) -> int:
        """Number of slots of the computed schedule."""
        return self.schedule.length


def euclidean_mst_tree(nodes: Sequence[Node], root_id: int | None = None) -> BiTree:
    """The Euclidean MST oriented towards a root, as a :class:`BiTree`.

    Args:
        nodes: the nodes to span.
        root_id: id of the designated root (defaults to the lowest id).

    Raises:
        ProtocolError: when no nodes are given or the root id is unknown.
    """
    node_list = list(nodes)
    if not node_list:
        raise ProtocolError("cannot build an MST on zero nodes")
    ids = [node.id for node in node_list]
    if root_id is None:
        root_id = min(ids)
    if root_id not in ids:
        raise ProtocolError(f"unknown root id {root_id}")
    if len(node_list) == 1:
        return BiTree.from_parent_map(node_list, root_id, {})

    # Prim from the root over the Node.distance_to values: each vertex joins
    # the grown tree through its cheapest edge, whose far end is its parent.
    dist = np.array([[first.distance_to(second) for second in node_list] for first in node_list])
    root = ids.index(root_id)
    joined = np.zeros(len(node_list), dtype=bool)
    joined[root] = True
    cheapest = dist[root].copy()
    via = np.full(len(node_list), root)
    children: list[list[int]] = [[] for _ in node_list]
    for _ in range(len(node_list) - 1):
        index = int(np.argmin(np.where(joined, np.inf, cheapest)))
        joined[index] = True
        children[via[index]].append(index)
        closer = dist[index] < cheapest
        cheapest[closer] = dist[index][closer]
        via[closer] = index

    # Breadth-first from the root, children by ascending link length: the
    # parent map's order, which the first-fit schedule visits, is that of a
    # BFS over an MST built in length order (Kruskal's).
    parent: dict[int, int] = {}
    depth = {root_id: 0}
    queue = [root]
    for index in queue:
        for child in sorted(children[index], key=lambda c: dist[index, c]):
            parent[ids[child]] = ids[index]
            depth[ids[child]] = depth[ids[index]] + 1
            queue.append(child)
    # Schedule stamps: deeper nodes' links earlier (valid aggregation order).
    max_depth = max(depth.values(), default=0)
    slots = {child: max_depth - depth[child] for child in parent}
    return BiTree.from_parent_map(node_list, root_id, parent, slots)


class CentralizedMSTBaseline:
    """Centralized MST construction + first-fit scheduling baseline.

    Args:
        params: physical-model parameters.
        power_scheme: "mean", "linear" or "uniform" - the oblivious power
            scheme used for the centralized schedule.  (Power control per slot
            can be layered on top by the caller via ``repro.core.solve_power``.)
    """

    def __init__(self, params: SINRParameters, power_scheme: str = "mean"):
        if power_scheme not in ("mean", "linear", "uniform"):
            raise ValueError(f"unknown power scheme {power_scheme!r}")
        self.params = params
        self.power_scheme = power_scheme

    def _power_for(self, links: LinkSet) -> PowerAssignment:
        longest = max((link.length for link in links), default=1.0)
        if self.power_scheme == "mean":
            return MeanPower.for_max_length(self.params, max(longest, 1.0))
        if self.power_scheme == "linear":
            return LinearPower.for_noise(self.params)
        return UniformPower.for_max_length(self.params, max(longest, 1.0))

    def build(self, nodes: Sequence[Node], root_id: int | None = None) -> CentralizedBaselineResult:
        """Build the MST tree and its centralized schedule."""
        tree = euclidean_mst_tree(nodes, root_id)
        links = tree.aggregation_links()
        power = self._power_for(links)
        if len(links) == 0:
            return CentralizedBaselineResult(tree, Schedule(), power, self.power_scheme)
        schedule = ordered_first_fit_schedule(tree, power, self.params)
        # Re-stamp the tree's aggregation schedule so it matches the computed
        # one (useful when callers treat the baseline as a bi-tree).
        retimed = BiTree(
            nodes=tree.nodes,
            root_id=tree.root_id,
            parent=tree.parent,
            aggregation_schedule=schedule,
        )
        return CentralizedBaselineResult(retimed, schedule, power, self.power_scheme)


def ordered_first_fit_schedule(tree: BiTree, power: PowerAssignment, params) -> Schedule:
    """First-fit scheduling of a tree that respects the aggregation order.

    Links are processed bottom-up (deepest senders first); each link is placed
    into the earliest slot that is (a) strictly later than every slot used by
    the sender's subtree links, (b) feasible with the slot's existing members
    under ``power``, and (c) free of node reuse.  The result is a valid
    aggregation-tree schedule whose reversal is a valid dissemination order.

    As in :func:`~repro.core.capacity.first_fit_schedule`, the affectance
    matrix is computed once over every link and each slot keeps an
    :class:`~repro.sinr.AffectanceAccumulator`, so a placement test costs
    O(slot size).
    """
    depth = tree.depths()
    children = tree.children_map()
    order = sorted(tree.parent, key=lambda child: -depth[child])
    links = [Link(tree.nodes[child], tree.nodes[tree.parent[child]]) for child in order]
    matrix = PositionedLinks.from_links(links).affectance_matrix(
        np.array(power.powers(links), dtype=float), params
    )
    schedule = Schedule()
    slots: list[AffectanceAccumulator] = []
    slot_nodes: list[set[int]] = []
    child_slot: dict[int, int] = {}

    for index, (child, link) in enumerate(zip(order, links)):
        earliest = 0
        for grandchild in children.get(child, ()):
            if grandchild in child_slot:
                earliest = max(earliest, child_slot[grandchild] + 1)
        for slot_index in range(earliest, len(slots)):
            if link.sender.id in slot_nodes[slot_index] or link.receiver.id in slot_nodes[slot_index]:
                continue
            if slots[slot_index].max_total_with(index) <= 1.0 + 1e-9:
                slots[slot_index].add(index)
                break
        else:
            # Open a fresh slot no earlier than the ordering constraint allows,
            # padding with empty slots if the constraint points past the end.
            while len(slots) < earliest:
                slots.append(AffectanceAccumulator(matrix))
                slot_nodes.append(set())
            slots.append(AffectanceAccumulator(matrix, members=(index,)))
            slot_nodes.append(set())
            slot_index = len(slots) - 1
        slot_nodes[slot_index].update(link.endpoint_ids)
        schedule.assign(link, slot_index)
        child_slot[child] = slot_index
    return schedule
