"""Transmission schedules.

A *schedule* partitions a link set into slots; it is valid when every slot's
links are simultaneously feasible under the schedule's power assignment.  The
number of (non-empty) slots is the schedule length - the paper's measure of
the quality of a connectivity structure.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from ..exceptions import ScheduleError
from ..links import Link, LinkSet
from ..sinr import PowerAssignment, SINRParameters, feasibility_report

__all__ = ["Schedule"]


class Schedule:
    """An assignment of links to integer slots.

    Args:
        assignment: optional initial mapping from link to slot index.
    """

    def __init__(self, assignment: Mapping[Link, int] | None = None):
        self._slots: dict[Link, int] = {}
        if assignment:
            for link, slot in assignment.items():
                self.assign(link, slot)

    # -- construction -----------------------------------------------------

    def assign(self, link: Link, slot: int) -> None:
        """Assign ``link`` to ``slot`` (overwrites any previous assignment)."""
        if slot < 0:
            raise ScheduleError(f"slot indices must be non-negative, got {slot}")
        self._slots[link] = int(slot)

    def merge(self, other: "Schedule", offset: int = 0) -> "Schedule":
        """A new schedule containing both assignments, ``other`` shifted by ``offset``."""
        merged = Schedule(dict(self._slots))
        for link, slot in other.items():
            merged.assign(link, slot + offset)
        return merged

    def normalized(self) -> "Schedule":
        """Renumber the used slots consecutively from 0, preserving order."""
        used = sorted(set(self._slots.values()))
        remap = {slot: index for index, slot in enumerate(used)}
        return Schedule({link: remap[slot] for link, slot in self._slots.items()})

    def relabeled(self, mapping: Callable[[int], int]) -> "Schedule":
        """A new schedule with every slot index passed through ``mapping``."""
        return Schedule({link: mapping(slot) for link, slot in self._slots.items()})

    def reversed(self) -> "Schedule":
        """A new schedule with the slot order reversed (slot s -> max_slot - s).

        This is how a dissemination schedule is obtained from an aggregation
        schedule (Definition 1).
        """
        if not self._slots:
            return Schedule()
        top = max(self._slots.values())
        return Schedule({link: top - slot for link, slot in self._slots.items()})

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, link: Link) -> bool:
        return link in self._slots

    def __iter__(self) -> Iterator[Link]:
        return iter(self._slots)

    def items(self) -> Iterable[tuple[Link, int]]:
        """(link, slot) pairs."""
        return self._slots.items()

    def slot_of(self, link: Link) -> int:
        """Slot assigned to ``link``.

        Raises:
            ScheduleError: if the link is not scheduled.
        """
        try:
            return self._slots[link]
        except KeyError as exc:
            raise ScheduleError(f"link {link.endpoint_ids} is not scheduled") from exc

    def links(self) -> LinkSet:
        """All scheduled links."""
        return LinkSet(self._slots.keys())

    def used_slots(self) -> list[int]:
        """Sorted list of distinct slot indices in use."""
        return sorted(set(self._slots.values()))

    @property
    def length(self) -> int:
        """Number of distinct slots used (the schedule length)."""
        return len(set(self._slots.values()))

    @property
    def span(self) -> int:
        """One plus the largest slot index used (0 for an empty schedule)."""
        if not self._slots:
            return 0
        return max(self._slots.values()) + 1

    def slot_groups(self) -> dict[int, list[Link]]:
        """Mapping from slot index to the links assigned to it, in assignment order."""
        groups: dict[int, list[Link]] = {}
        for link, slot in self._slots.items():
            groups.setdefault(slot, []).append(link)
        return groups

    def links_in_slot(self, slot: int) -> LinkSet:
        """Links assigned to a specific slot (possibly empty)."""
        return LinkSet(link for link, s in self._slots.items() if s == slot)

    # -- validation ---------------------------------------------------------

    def infeasible_slots(
        self,
        power: PowerAssignment,
        params: SINRParameters,
        *,
        check_structure: bool = True,
    ) -> list[int]:
        """Slot indices whose link groups violate feasibility under ``power``."""
        bad: list[int] = []
        for slot, group in sorted(self.slot_groups().items()):
            report = feasibility_report(group, power, params, check_structure=check_structure)
            if not report.feasible:
                bad.append(slot)
        return bad

    def is_feasible(
        self,
        power: PowerAssignment,
        params: SINRParameters,
        *,
        check_structure: bool = True,
    ) -> bool:
        """Whether every slot group is feasible under ``power``."""
        return not self.infeasible_slots(power, params, check_structure=check_structure)

    def validate_covers(self, links: Iterable[Link]) -> None:
        """Ensure every link of ``links`` is scheduled.

        Raises:
            ScheduleError: listing missing links.
        """
        missing = [link for link in links if link not in self._slots]
        if missing:
            raise ScheduleError(
                f"{len(missing)} links are missing from the schedule, e.g. {missing[0].endpoint_ids}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule({len(self._slots)} links in {self.length} slots)"
