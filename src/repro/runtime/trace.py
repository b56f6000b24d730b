"""Execution traces and slot accounting for distributed runs.

Two trace backends share one API:

* :class:`ExecutionTrace` - the seed record-based store: one
  :class:`SlotRecord` (tuple of transmitter ids + reception dict) per slot.
* :class:`ColumnarTrace` - a columnar store: flat integer arrays plus
  per-slot offsets.  Appending a slot extends each column in one call from
  the engine's id arrays, touching no per-slot Python containers; the
  ``records`` / ``slots_used`` / ``busy_slots`` API is preserved on top by
  materializing :class:`SlotRecord` views on demand.

Both take a slot as three parallel id sequences - transmitters, then the
listeners that decoded and the sender each one decoded - given as lists or
as integer NumPy arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = ["SlotRecord", "ExecutionTrace", "ColumnarTrace"]

#: A column of node ids for one slot: a list or an integer array.
Ids = Sequence[int] | np.ndarray


def _as_list(ids: Ids) -> list[int]:
    return ids.tolist() if isinstance(ids, np.ndarray) else list(ids)


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
    """Accumulated record of a simulated protocol execution (record store)."""

    __slots__ = ('metadata', 'records')

    def __init__(
        self,
        records: Iterable[SlotRecord] | None = None,
        metadata: dict[str, Any] | None = None,
    ):
        self.records: list[SlotRecord] = list(records) if records is not None else []
        self.metadata: dict[str, Any] = dict(metadata) if metadata is not None else {}

    def record(self, record: SlotRecord) -> None:
        """Append one slot record."""
        self.records.append(record)

    def append_slot(
        self,
        slot: int,
        transmitter_ids: Ids,
        listener_ids: Ids,
        sender_ids: Ids,
        label: str = "",
    ) -> SlotRecord | None:
        """Append one slot from its components (the slot engines' entry point).

        ``listener_ids[k]`` decoded ``sender_ids[k]``.  Returns the stored
        :class:`SlotRecord`; columnar backends return ``None`` instead of
        materializing one.
        """
        record = SlotRecord(
            slot=slot,
            transmitters=tuple(_as_list(transmitter_ids)),
            receptions=dict(zip(_as_list(listener_ids), _as_list(sender_ids))),
            label=label,
        )
        self.record(record)
        return record

    @property
    def slots_used(self) -> int:
        """Total number of slots recorded."""
        return len(self.records)

    @property
    def transmissions_sent(self) -> int:
        """Total number of individual transmissions across all slots."""
        return sum(len(r.transmitters) for r in self.records)

    @property
    def successful_receptions(self) -> int:
        """Total number of successful receptions across all slots."""
        return sum(len(r.receptions) for r in self.records)

    def busy_slots(self) -> int:
        """Number of slots in which at least one node transmitted."""
        return sum(1 for r in self.records if r.transmitters)

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


class ColumnarTrace(ExecutionTrace):
    """Columnar trace backend: flat id arrays plus per-slot offsets.

    Args:
        metadata: free-form experiment metadata, as on :class:`ExecutionTrace`.
    """

    def __init__(self, metadata: dict[str, Any] | None = None):
        # Deliberately no super().__init__(): `records` is a materialized
        # property here, not storage.
        self.metadata: dict[str, Any] = dict(metadata) if metadata is not None else {}
        self._slots = array("q")
        self._labels: list[str] = []
        self._tx_flat = array("q")
        self._tx_offsets = array("q", [0])
        self._rx_listeners = array("q")
        self._rx_senders = array("q")
        self._rx_offsets = array("q", [0])
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
        self._slots.append(slot)
        self._labels.append(label)
        _extend(self._tx_flat, transmitter_ids)
        self._tx_offsets.append(len(self._tx_flat))
        _extend(self._rx_listeners, listener_ids)
        _extend(self._rx_senders, sender_ids)
        self._rx_offsets.append(len(self._rx_listeners))
        self._materialized = None
        return None

    def record(self, record: SlotRecord) -> None:
        """Append one :class:`SlotRecord` by decomposing it into columns."""
        self.append_slot(
            record.slot,
            record.transmitters,
            list(record.receptions),
            list(record.receptions.values()),
            record.label,
        )

    # -- reading -------------------------------------------------------------

    @property
    def records(self) -> list[SlotRecord]:
        """Materialized :class:`SlotRecord` view of the columns (cached)."""
        if self._materialized is None:
            records = []
            for k in range(len(self._slots)):
                t0, t1 = self._tx_offsets[k], self._tx_offsets[k + 1]
                r0, r1 = self._rx_offsets[k], self._rx_offsets[k + 1]
                records.append(
                    SlotRecord(
                        slot=self._slots[k],
                        transmitters=tuple(self._tx_flat[t0:t1]),
                        receptions={
                            self._rx_listeners[j]: self._rx_senders[j] for j in range(r0, r1)
                        },
                        label=self._labels[k],
                    )
                )
            self._materialized = records
        return self._materialized

    @property
    def slots_used(self) -> int:
        return len(self._slots)

    @property
    def transmissions_sent(self) -> int:
        return self._tx_offsets[-1]

    @property
    def successful_receptions(self) -> int:
        return self._rx_offsets[-1]

    def busy_slots(self) -> int:
        offsets = self._tx_offsets
        return sum(1 for k in range(len(self._slots)) if offsets[k + 1] > offsets[k])

    def slots_with_label(self, label: str) -> list[SlotRecord]:
        return [r for r in self.records if r.label == label]


def _extend(column: array, ids: Ids) -> None:
    """Extend an ``array("q")`` column by one slot's ids in a single call."""
    if len(ids):
        column.frombytes(np.asarray(ids, dtype=np.int64).tobytes())
