"""The centralized MST baseline's ordered first-fit as the seed ran it.

:func:`ordered_first_fit_reference` rebuilds the slot's affectance matrix
(``members + [link]``) for every placement test.  The baseline now reads
one affectance matrix and keeps an ``AffectanceAccumulator`` per slot; it
must place every link where this loop does.
"""

from __future__ import annotations

from repro.core.bitree import BiTree
from repro.core.schedule import Schedule
from repro.links import Link
from repro.sinr import PowerAssignment, SINRParameters, affectance_matrix

__all__ = ["ordered_first_fit_reference"]


def ordered_first_fit_reference(
    tree: BiTree, power: PowerAssignment, params: SINRParameters
) -> Schedule:
    """Bottom-up first fit, later than the subtree's slots, one matrix per test."""
    depth = tree.depths()
    children = tree.children_map()
    order = sorted(tree.parent, key=lambda child: -depth[child])
    schedule = Schedule()
    slot_members: list[list[Link]] = []
    slot_nodes: list[set[int]] = []
    child_slot: dict[int, int] = {}

    for child in order:
        link = Link(tree.nodes[child], tree.nodes[tree.parent[child]])
        earliest = 0
        for grandchild in children.get(child, ()):
            if grandchild in child_slot:
                earliest = max(earliest, child_slot[grandchild] + 1)
        placed = False
        for slot_index in range(earliest, len(slot_members)):
            if link.sender.id in slot_nodes[slot_index] or link.receiver.id in slot_nodes[slot_index]:
                continue
            candidate = slot_members[slot_index] + [link]
            matrix = affectance_matrix(candidate, power, params)
            if float(matrix.sum(axis=0).max()) <= 1.0 + 1e-9:
                slot_members[slot_index].append(link)
                slot_nodes[slot_index].update(link.endpoint_ids)
                schedule.assign(link, slot_index)
                child_slot[child] = slot_index
                placed = True
                break
        if not placed:
            while len(slot_members) < earliest:
                slot_members.append([])
                slot_nodes.append(set())
            slot_members.append([link])
            slot_nodes.append(set(link.endpoint_ids))
            slot_index = len(slot_members) - 1
            schedule.assign(link, slot_index)
            child_slot[child] = slot_index
    return schedule
