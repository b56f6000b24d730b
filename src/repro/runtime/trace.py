"""Execution traces and slot accounting for distributed runs.

:class:`ExecutionTrace` stores a run as columns: flat integer arrays plus
per-slot offsets.  Appending a slot only keeps the slot's id arrays (the
slot engines hand theirs over, so their slots copy no bytes); the first
read after appends flattens them into the columns in one concatenation
per column.  The ``records`` view materializes one :class:`SlotRecord` per
slot on demand.

A slot is given as three parallel id sequences - transmitters, then the
listeners that decoded and the sender each one decoded - as lists or as
integer NumPy arrays.  The slot engines hand over node positions instead,
with the array of their nodes' ids; the trace maps them to ids once per
column when it flattens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = ["SlotRecord", "ExecutionTrace"]

#: A column of node ids for one slot: a list or an integer array.
Ids = Sequence[int] | np.ndarray

_NO_IDS = np.zeros(0, dtype=np.int64)
_START = np.zeros(1, dtype=np.int64)


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one slot of a simulated execution.

    Attributes:
        slot: global slot index.
        transmitters: ids of the nodes that transmitted.
        receptions: mapping from listener id to the id of the decoded sender.
        label: optional protocol-specific tag (e.g. "broadcast" / "ack").
    """

    slot: int
    transmitters: tuple[int, ...]
    receptions: dict[int, int]
    label: str = ""


class ExecutionTrace:
    """Accumulated record of a simulated protocol execution.

    Appended slots wait as id arrays until a read flattens them into the
    columns, so reads may interleave with appends at any point.

    Args:
        metadata: free-form experiment metadata, merged into :meth:`summary`.
    """

    __slots__ = (
        "_labels",
        "_materialized",
        "_pending",
        "_pending_ids",
        "_rx_listeners",
        "_rx_offsets",
        "_rx_senders",
        "_slots",
        "_tx_flat",
        "_tx_offsets",
        "metadata",
    )

    def __init__(self, metadata: dict[str, Any] | None = None):
        self.metadata: dict[str, Any] = dict(metadata) if metadata is not None else {}
        self._labels: list[str] = []
        #: (slot, transmitters, listeners, senders) of slots not yet flattened.
        self._pending: list[tuple[int, Ids, Ids, Ids]] = []
        #: id of every node position when the pending slots hold positions.
        self._pending_ids: np.ndarray | None = None
        self._slots = _NO_IDS
        self._tx_flat = _NO_IDS
        self._tx_offsets = _START
        self._rx_listeners = _NO_IDS
        self._rx_senders = _NO_IDS
        self._rx_offsets = _START
        self._materialized: list[SlotRecord] | None = None

    # -- writing -------------------------------------------------------------

    def append_slot(
        self,
        slot: int,
        transmitter_ids: Ids,
        listener_ids: Ids,
        sender_ids: Ids,
        label: str = "",
    ) -> None:
        """Append one slot from its components; ``listener_ids[k]`` decoded
        ``sender_ids[k]``.  The trace keeps copies of the id sequences."""
        listener_ids = np.array(listener_ids, dtype=np.int64)
        sender_ids = np.array(sender_ids, dtype=np.int64)
        if listener_ids.size != sender_ids.size:
            raise ValueError("every listener needs exactly one sender")
        self._append_owned(
            slot, np.array(transmitter_ids, dtype=np.int64), listener_ids, sender_ids, label
        )

    def _append_owned(
        self,
        slot: int,
        transmitter_ids: np.ndarray,
        listener_ids: np.ndarray,
        sender_ids: np.ndarray,
        label: str,
        ids: np.ndarray | None = None,
    ) -> None:
        """Append one slot whose integer arrays the trace now owns.

        With ``ids``, the arrays hold node positions and ``ids[p]`` is the
        id of position ``p``; they are mapped to ids when the trace
        flattens.  The slot engines hand over fresh arrays they never write
        again, so the trace keeps them as they are, unchecked.
        """
        if ids is not self._pending_ids:
            # The pending slots are mapped with the ids they came with.
            self._flatten()
            self._pending_ids = ids
        self._pending.append((slot, transmitter_ids, listener_ids, sender_ids))
        self._labels.append(label)
        self._materialized = None

    def record(self, record: SlotRecord) -> None:
        """Append one :class:`SlotRecord` by decomposing it into columns."""
        self.append_slot(
            record.slot,
            record.transmitters,
            list(record.receptions),
            list(record.receptions.values()),
            record.label,
        )

    def _flatten(self) -> None:
        """Move the pending slots into the columns, one concatenation each."""
        if not self._pending:
            return
        slots, tx, rx, src = zip(*self._pending)
        self._pending.clear()
        ids = self._pending_ids
        self._slots = np.concatenate((self._slots, np.array(slots, dtype=np.int64)))
        self._tx_flat, self._tx_offsets = _extend(self._tx_flat, self._tx_offsets, tx, ids)
        self._rx_listeners, self._rx_offsets = _extend(
            self._rx_listeners, self._rx_offsets, rx, ids
        )
        self._rx_senders = _concat(self._rx_senders, src, ids)

    # -- reading -------------------------------------------------------------

    @property
    def records(self) -> list[SlotRecord]:
        """Materialized :class:`SlotRecord` view of the columns (cached)."""
        if self._materialized is None:
            self._flatten()
            tx, tx_at = self._tx_flat.tolist(), self._tx_offsets.tolist()
            rx, src, rx_at = (
                self._rx_listeners.tolist(),
                self._rx_senders.tolist(),
                self._rx_offsets.tolist(),
            )
            self._materialized = [
                SlotRecord(
                    slot=slot,
                    transmitters=tuple(tx[tx_at[k] : tx_at[k + 1]]),
                    receptions=dict(zip(rx[rx_at[k] : rx_at[k + 1]], src[rx_at[k] : rx_at[k + 1]])),
                    label=label,
                )
                for k, (slot, label) in enumerate(zip(self._slots.tolist(), self._labels))
            ]
        return self._materialized

    @property
    def slots_used(self) -> int:
        """Total number of slots recorded."""
        return len(self._labels)

    @property
    def transmissions_sent(self) -> int:
        """Total number of individual transmissions across all slots."""
        self._flatten()
        return int(self._tx_offsets[-1])

    @property
    def successful_receptions(self) -> int:
        """Total number of successful receptions across all slots."""
        self._flatten()
        return int(self._rx_offsets[-1])

    def busy_slots(self) -> int:
        """Number of slots in which at least one node transmitted."""
        self._flatten()
        return int(np.count_nonzero(np.diff(self._tx_offsets)))

    def slots_with_label(self, label: str) -> list[SlotRecord]:
        """All slot records carrying the given label."""
        return [r for r in self.records if r.label == label]

    def summary(self) -> dict[str, Any]:
        """Compact summary used by experiment reports."""
        return {
            "slots_used": self.slots_used,
            "busy_slots": self.busy_slots(),
            "transmissions_sent": self.transmissions_sent,
            "successful_receptions": self.successful_receptions,
            **self.metadata,
        }


def _concat(flat: np.ndarray, parts: Sequence[Ids], ids: np.ndarray | None) -> np.ndarray:
    """``flat`` followed by every part, mapped through ``ids`` when given."""
    if ids is None:
        return np.concatenate((flat, *parts), dtype=np.int64)
    return np.concatenate((flat, ids[np.concatenate(parts)]), dtype=np.int64)


def _extend(
    flat: np.ndarray, offsets: np.ndarray, parts: Sequence[Ids], ids: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """``flat`` and its slot ``offsets`` extended by one slot per part."""
    ends = offsets[-1] + np.cumsum([len(part) for part in parts], dtype=np.int64)
    return _concat(flat, parts, ids), np.concatenate((offsets, ends))
