"""Centralized capacity and scheduling primitives.

Two classical centralized building blocks the paper leans on:

* **Capacity selection** (Kesselheim, SODA 2011 [14]): processing links in
  ascending length order and admitting a link ``l`` whenever

      a^L_L(l) + a^U_l(L) <= tau                       (Eqn. 3 of the paper)

  - the linear-power affectance of the already-selected set on ``l`` plus the
  uniform-power affectance of ``l`` on the set - yields a constant-factor
  approximation of the maximum feasible subset under power control.  The
  admitted set is power-controllable; powers come from
  ``repro.core.power_solver``.

* **First-fit scheduling** under a fixed power assignment: process links in
  descending length order and place each into the first slot where the total
  affectance (in both directions) stays below 1.  For psi-sparse sets this
  uses ``O(psi log n)`` slots (Theorem 9), and it doubles as the centralized
  baseline scheduler.

The pair-weight function ``f_l(l')`` (Section 8.2.2) used in the analysis of
``Distr-Cap`` is also provided, for the property-based tests that check
Eqn. (5)-style bounds on feasible sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..links import Link, LinkSet
from ..sinr import (
    AffectanceAccumulator,
    LinearPower,
    PositionedLinks,
    PowerAssignment,
    SINRParameters,
    UniformPower,
    affectance_between_links,
)
from .schedule import Schedule

__all__ = [
    "CapacityResult",
    "select_feasible_subset",
    "select_power_controllable_subset",
    "pair_weight",
    "total_pair_weight",
    "first_fit_schedule",
    "first_fit_schedule_result",
    "FirstFitResult",
]


def _default_uniform(links: Sequence[Link], params: SINRParameters) -> UniformPower:
    longest = max((link.length for link in links), default=1.0)
    return UniformPower.for_max_length(params, max(longest, 1.0))


def _default_linear(params: SINRParameters) -> LinearPower:
    return LinearPower.for_noise(params)


def _powers(links: Sequence[Link], power: PowerAssignment) -> np.ndarray:
    return np.array(power.powers(links), dtype=float)


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of the centralized capacity selection.

    Attributes:
        selected: the admitted link set (power-controllable by construction).
        considered: number of links examined.
        tau: the admission threshold used.
    """

    selected: LinkSet
    considered: int
    tau: float


def select_feasible_subset(
    links: Sequence[Link] | LinkSet,
    params: SINRParameters,
    *,
    tau: float = 0.8,
    exclusive_nodes: bool = True,
) -> CapacityResult:
    """Kesselheim's ascending-length greedy capacity selection (Eqn. 3).

    Args:
        links: candidate links.
        params: physical-model parameters.
        tau: admission threshold; smaller is more conservative.
        exclusive_nodes: additionally require that no node appears in two
            admitted links.  The paper's connectivity use-case needs this (a
            feasible set in one slot cannot reuse a node); pure capacity
            studies may disable it.

    Returns:
        The admitted subset in a :class:`CapacityResult`.
    """
    link_list = sorted(links, key=lambda link: (link.length, link.endpoint_ids))
    if not link_list:
        return CapacityResult(LinkSet(), 0, tau)
    if tau <= 0:
        raise ValueError("tau must be positive")

    uniform = _default_uniform(link_list, params)
    linear = _default_linear(params)
    # Both pairwise affectance matrices are computed once over the candidate
    # universe; the greedy loop then runs on incremental accumulators: O(1)
    # admission tests and one O(m) row/column update per accepted link,
    # instead of rescanning the selected set per candidate.
    positioned = PositionedLinks.from_links(link_list)
    incoming = AffectanceAccumulator(
        positioned.affectance_matrix(_powers(link_list, linear), params)
    )
    outgoing = AffectanceAccumulator(
        positioned.affectance_matrix(_powers(link_list, uniform), params).T
    )
    selected: list[Link] = []
    used_nodes: set[int] = set()
    for index, candidate in enumerate(link_list):
        if exclusive_nodes and (
            candidate.sender.id in used_nodes or candidate.receiver.id in used_nodes
        ):
            continue
        if incoming.total(index) + outgoing.total(index) <= tau:
            incoming.add(index)
            outgoing.add(index)
            selected.append(candidate)
            used_nodes.add(candidate.sender.id)
            used_nodes.add(candidate.receiver.id)
    return CapacityResult(LinkSet(selected), len(link_list), tau)


def select_power_controllable_subset(
    links: Sequence[Link] | LinkSet,
    params: SINRParameters,
    *,
    tau: float = 0.5,
    margin: float = 1.05,
    exclusive_nodes: bool = True,
) -> LinkSet:
    """Capacity selection followed by pruning to exact power-controllability.

    The Eqn. 3 admission rule guarantees a power-controllable set for a
    sufficiently small ``tau``; with practical thresholds the guarantee can be
    marginal, so this helper verifies the exact spectral condition (at the
    requested SINR ``margin``) and greedily drops the longest admitted links
    until it holds.  The result is always solvable by ``solve_power``.
    """
    from .power_solver import is_power_controllable

    selected = list(
        select_feasible_subset(links, params, tau=tau, exclusive_nodes=exclusive_nodes).selected
    )
    selected.sort(key=lambda link: (link.length, link.endpoint_ids))
    while len(selected) > 1 and not is_power_controllable(selected, params, margin=margin):
        selected.pop()
    return LinkSet(selected)


def pair_weight(first: Link, second: Link, params: SINRParameters) -> float:
    """The weight ``f_first(second)`` of Section 8.2.2.

    ``f_l(l') = a^U_{l'}(l) + a^L_l(l')`` when ``l`` is no longer than ``l'``,
    and 0 otherwise.
    """
    if first.length > second.length:
        return 0.0
    uniform = _default_uniform([first, second], params)
    linear = _default_linear(params)
    incoming = affectance_between_links(second, first, uniform, params)
    outgoing = affectance_between_links(first, second, linear, params)
    return incoming + outgoing


def total_pair_weight(link: Link, others: Sequence[Link], params: SINRParameters) -> float:
    """``f_link(others) = sum of f_link(other)`` over the given links."""
    return sum(pair_weight(link, other, params) for other in others if other != link)


@dataclass(frozen=True)
class FirstFitResult:
    """Outcome of the first-fit scheduler.

    Attributes:
        schedule: the produced schedule.
        power: the power assignment it was built against.
    """

    schedule: Schedule
    power: PowerAssignment


def first_fit_schedule(
    links: Sequence[Link] | LinkSet,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    exclusive_nodes: bool = True,
) -> Schedule:
    """Greedy first-fit scheduling of a link set under a fixed power assignment.

    Links are processed in descending length order; each goes into the first
    slot where (a) the slot's total affectance on every member, including the
    newcomer, stays at most 1, and (b) optionally no node is reused within the
    slot.  A new slot is opened when no existing slot fits.

    The pairwise affectance matrix is computed once over the whole input;
    each slot keeps an incremental :class:`AffectanceAccumulator`, so a
    placement test costs O(slot size) and an accepted link one O(m) vector
    update - the seed implementation rebuilt the full slot matrix per test.
    """
    link_list = sorted(links, key=lambda link: (-link.length, link.endpoint_ids))
    schedule = Schedule()
    matrix = PositionedLinks.from_links(link_list).affectance_matrix(
        _powers(link_list, power), params
    )
    slot_accumulators: list[AffectanceAccumulator] = []
    slot_nodes: list[set[int]] = []
    for index, link in enumerate(link_list):
        placed = False
        for slot_index, accumulator in enumerate(slot_accumulators):
            if exclusive_nodes and (
                link.sender.id in slot_nodes[slot_index]
                or link.receiver.id in slot_nodes[slot_index]
            ):
                continue
            if accumulator.max_total_with(index) <= 1.0 + 1e-9:
                accumulator.add(index)
                slot_nodes[slot_index].update(link.endpoint_ids)
                schedule.assign(link, slot_index)
                placed = True
                break
        if not placed:
            accumulator = AffectanceAccumulator(matrix, members=(index,))
            slot_accumulators.append(accumulator)
            slot_nodes.append(set(link.endpoint_ids))
            schedule.assign(link, len(slot_accumulators) - 1)
    return schedule


def first_fit_schedule_result(
    links: Sequence[Link] | LinkSet,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    exclusive_nodes: bool = True,
) -> FirstFitResult:
    """Convenience wrapper returning the schedule together with its power."""
    schedule = first_fit_schedule(links, power, params, exclusive_nodes=exclusive_nodes)
    return FirstFitResult(schedule=schedule, power=power)
