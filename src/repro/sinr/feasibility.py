"""Feasibility of link sets under the SINR constraint.

A set of links is *feasible* under a power assignment when every link's
receiver attains the required SINR ``beta`` while all the other links'
senders transmit simultaneously - equivalently (Section 5) when the total
affectance on every link is at most 1.

A feasible set may still not be *schedulable in one slot* for reasons outside
Eqn. (1): a node cannot transmit and receive at the same time (half-duplex)
and cannot transmit two different messages at once.  Those structural checks
live here too, so schedulers and validators share a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..links import Link
from .parameters import SINRParameters
from .positioned import PositionedLinks, as_positioned_links
from .power import PowerAssignment

__all__ = [
    "FeasibilityReport",
    "sinr_values",
    "is_feasible",
    "feasibility_report",
    "violates_half_duplex",
    "duplicate_senders",
    "is_schedulable_slot",
    "FEASIBILITY_TOLERANCE",
]

# Numerical slack on the affectance <= 1 test (pure floating-point tolerance).
FEASIBILITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FeasibilityReport:
    """Detailed outcome of a feasibility check.

    Attributes:
        feasible: whether every link meets the SINR constraint and the set is
            structurally schedulable in a single slot.
        sinr_ok: whether the affectance condition alone holds.
        half_duplex_ok: whether no node both sends and receives in the set.
        senders_ok: whether no node is the sender of two different links.
        worst_affectance: largest total incoming affectance over the links.
        worst_link_index: index (into the input order) of the worst link.
    """

    feasible: bool
    sinr_ok: bool
    half_duplex_ok: bool
    senders_ok: bool
    worst_affectance: float
    worst_link_index: int | None


def sinr_values(
    links: Sequence[Link] | PositionedLinks, power: PowerAssignment, params: SINRParameters
) -> np.ndarray:
    """SINR achieved at each link's receiver with all the set's senders active.

    This is the raw Eqn. (1) quantity (not the thresholded affectance), useful
    for reporting margins.
    """
    positioned = as_positioned_links(links)
    powers = np.array(power.powers(positioned.links()), dtype=float)
    return positioned.sinr_values(powers, params)


def violates_half_duplex(links: Iterable[Link]) -> bool:
    """Whether some node appears both as a sender and as a receiver."""
    link_list = list(links)
    senders = {l.sender.id for l in link_list}
    receivers = {l.receiver.id for l in link_list}
    return bool(senders & receivers)


def duplicate_senders(links: Iterable[Link]) -> bool:
    """Whether some node is the sender of two distinct links."""
    seen: set[int] = set()
    for link in links:
        if link.sender.id in seen:
            return True
        seen.add(link.sender.id)
    return False


def feasibility_report(
    links: Sequence[Link] | PositionedLinks,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    check_structure: bool = True,
) -> FeasibilityReport:
    """Full feasibility diagnosis of a candidate single-slot link set."""
    positioned = as_positioned_links(links)
    link_list = positioned.links()
    if not link_list:
        return FeasibilityReport(True, True, True, True, 0.0, None)
    # The affectance condition folds noise into the link cost c(u, v), which is
    # infinite (and the affectance cap hides it) when a link cannot even beat
    # noise on its own; the raw SINR is checked as well so such links are
    # rejected.  Both come from one distance rectangle.
    matrix, raw_sinr = positioned.affectance_and_sinr(
        np.array(power.powers(link_list), dtype=float), params
    )
    incoming = matrix.sum(axis=0)
    worst_index = int(np.argmax(incoming))
    worst = float(incoming[worst_index])
    noise_ok = bool(np.all(raw_sinr >= params.beta * (1.0 - 1e-9)))
    sinr_ok = bool(worst <= 1.0 + FEASIBILITY_TOLERANCE) and noise_ok
    half_duplex_ok = not violates_half_duplex(link_list)
    senders_ok = not duplicate_senders(link_list)
    if check_structure:
        feasible = sinr_ok and half_duplex_ok and senders_ok
    else:
        feasible = sinr_ok
    return FeasibilityReport(
        feasible=feasible,
        sinr_ok=sinr_ok,
        half_duplex_ok=half_duplex_ok,
        senders_ok=senders_ok,
        worst_affectance=worst,
        worst_link_index=worst_index,
    )


def is_feasible(
    links: Sequence[Link] | PositionedLinks,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    check_structure: bool = False,
) -> bool:
    """Whether the link set satisfies the SINR constraint under ``power``.

    Args:
        links: candidate simultaneous links.
        power: power assignment.
        params: physical-model parameters.
        check_structure: additionally require half-duplex compliance and
            distinct senders (what a real slot needs).  The paper's notion of
            feasibility is the SINR condition only, so this defaults to False.
    """
    return feasibility_report(links, power, params, check_structure=check_structure).feasible


def is_schedulable_slot(
    links: Sequence[Link], power: PowerAssignment, params: SINRParameters
) -> bool:
    """Whether the links can all be served in one physical slot."""
    return feasibility_report(links, power, params, check_structure=True).feasible
