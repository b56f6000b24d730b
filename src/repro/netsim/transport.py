"""Transport layer: who actually receives a decoded message, and when.

The SINR channel decides what a radio *could* decode in a slot; the transport
decides what the protocol stack above it actually *delivers*.  A
:class:`PerfectTransport` delivers every decoded message in its send slot -
composing it with the netsim runtime reproduces the lockstep simulator trace
bit for bit.  A :class:`FaultyTransport` consults a
:class:`~repro.netsim.faults.FaultPlan` per message and records what it did
to a :class:`~repro.netsim.faults.FaultTrace`.

Every query is per slot and batched: :meth:`Transport.admit` decides all of
a slot's decoded deliveries, :meth:`Transport.heartbeat_delivered` all of its
heartbeats and :meth:`Transport.crashed_ids` its whole down set.  The
answers come from tables built once: the plan's per-sender drop keys, a
heartbeat loss table per id set and block of :data:`HEARTBEAT_BLOCK` hashed
slots, and the crash schedule's change slots.

The ``slot_offset`` lets a follow-up run (e.g. the tree-completion patch
after crashes) continue the same fault streams instead of replaying the
drops of slot 0: the hash is keyed on ``slot + offset``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .._types import BoolArray, IntpArray
from ..obs.runtime import OBS
from .faults import FaultPlan, FaultTrace

__all__ = ["HEARTBEAT_BLOCK", "FaultyTransport", "PerfectTransport", "Transport"]

#: Hashed slots per heartbeat loss table: one table costs ``HEARTBEAT_BLOCK``
#: bytes per polled node, and is hashed in one pass instead of a pass a slot.
HEARTBEAT_BLOCK = 64

#: The empty down set, one object, so a caller can tell "still nobody" by
#: identity.
_NOBODY: frozenset[int] = frozenset()


class Transport(ABC):
    """Delivery policy for decoded messages plus node liveness."""

    __slots__ = ()

    @abstractmethod
    def admit(
        self, slot: int, src_ids: np.ndarray, dst_ids: np.ndarray
    ) -> tuple[BoolArray, IntpArray]:
        """Fate of aligned ``src -> dst`` deliveries decoded at ``slot``.

        Returns ``(delivered, delay)``: a boolean mask of messages that
        survive the transport and their extra delivery delay in slots
        (0 = the send slot itself).
        """

    @abstractmethod
    def crashed_ids(self, slot: int) -> frozenset[int]:
        """Ids of every node down at ``slot``.  Handing back the same set
        object while the down set is unchanged lets the runtime skip its
        crash sync for that slot."""

    def is_crashed(self, node_id: int, slot: int) -> bool:
        """Whether ``node_id`` is down at ``slot``."""
        return node_id in self.crashed_ids(slot)

    @abstractmethod
    def heartbeat_delivered(self, node_ids: np.ndarray, slot: int) -> BoolArray:
        """Which of ``node_ids``' out-of-band heartbeats at ``slot`` arrive."""


class PerfectTransport(Transport):
    """Everything is delivered immediately; nobody crashes."""

    __slots__ = ()

    def admit(
        self, slot: int, src_ids: np.ndarray, dst_ids: np.ndarray
    ) -> tuple[BoolArray, IntpArray]:
        count = len(np.asarray(dst_ids))
        return np.ones(count, dtype=bool), np.zeros(count, dtype=np.intp)

    def crashed_ids(self, slot: int) -> frozenset[int]:
        return _NOBODY

    def heartbeat_delivered(self, node_ids: np.ndarray, slot: int) -> BoolArray:
        return np.ones(len(node_ids), dtype=bool)


class _HeartbeatBlock:
    """Heartbeat fates of one id set over :data:`HEARTBEAT_BLOCK` hashed
    slots from ``first``.

    ``delivered[k]`` (read-only) is the answer for hashed slot ``first + k``,
    and entries ``bounds[k]:bounds[k + 1]`` of ``loss_slots`` / ``loss_ids``
    are that slot's lost heartbeats, in id order.
    """

    __slots__ = ("bounds", "delivered", "first", "key", "loss_ids", "loss_slots")

    def __init__(self, plan: FaultPlan, ids: np.ndarray, first: int) -> None:
        lost = plan.heartbeat_losses(ids, first, HEARTBEAT_BLOCK)
        rows, cols = lost.nonzero()
        self.first = first
        self.key = ids.tobytes()
        self.delivered = ~lost
        self.delivered.flags.writeable = False
        self.loss_slots = rows + first
        self.loss_ids = ids[cols]
        self.bounds = rows.searchsorted(np.arange(HEARTBEAT_BLOCK + 1)).tolist()


class FaultyTransport(Transport):
    """Applies a :class:`FaultPlan` to every delivery and liveness query.

    Args:
        plan: the fault configuration.
        trace: recorder for injected faults (a fresh one if omitted).
        slot_offset: added to every slot before hashing, so chained runs
            (main run, then a completion patch) draw from fresh counters.
    """

    __slots__ = ("_heartbeats", "plan", "slot_offset", "trace")

    def __init__(
        self,
        plan: FaultPlan,
        trace: FaultTrace | None = None,
        *,
        slot_offset: int = 0,
    ) -> None:
        self.plan = plan
        self.trace = trace if trace is not None else FaultTrace()
        self.slot_offset = slot_offset
        #: the heartbeat loss table of the id set polled last; a run polls
        #: the same live set slot after slot.
        self._heartbeats: _HeartbeatBlock | None = None

    def admit(
        self, slot: int, src_ids: np.ndarray, dst_ids: np.ndarray
    ) -> tuple[BoolArray, IntpArray]:
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        plan = self.plan
        hashed_slot = slot + self.slot_offset
        drops = plan.dropped(src, dst, hashed_slot)
        if plan.latency is None:
            delay = np.zeros(drops.shape, dtype=np.intp)
            delayed = None
        else:
            delay = plan.latency.delays(plan.seed, src, dst, hashed_slot)
            delay[drops] = 0
            delayed = delay.nonzero()[0]
        dropped = drops.nonzero()[0]
        trace = self.trace
        # Trace order: by sender id, then by pair order within a sender.
        if dropped.size:
            k = dropped[np.argsort(src[dropped], kind="stable")]
            trace.dropped.extend(zip([slot] * k.size, src[k].tolist(), dst[k].tolist()))
        if delayed is not None and delayed.size:
            k = delayed[np.argsort(src[delayed], kind="stable")]
            trace.delayed.extend(
                zip([slot] * k.size, src[k].tolist(), dst[k].tolist(), delay[k].tolist())
            )
        if OBS.enabled:
            registry = OBS.registry
            if dropped.size:
                registry.inc("netsim.dropped", int(dropped.size))
            if delayed is not None and delayed.size:
                registry.inc("netsim.delayed", int(delayed.size))
        return ~drops, delay

    def crashed_ids(self, slot: int) -> frozenset[int]:
        return self.plan.crashes.crashed_ids(slot + self.slot_offset)

    def heartbeat_delivered(self, node_ids: np.ndarray, slot: int) -> BoolArray:
        """A read-only row of the loss table of ``node_ids`` (one dimension);
        a new id set or a slot outside the table's block hashes a fresh
        table from this slot on."""
        ids = np.asarray(node_ids, dtype=np.int64)
        if self.plan.heartbeat_loss_prob <= 0.0:
            return np.ones(ids.shape, dtype=bool)
        hashed_slot = slot + self.slot_offset
        block = self._heartbeats
        if (
            block is None
            or not 0 <= hashed_slot - block.first < HEARTBEAT_BLOCK
            or block.key != ids.tobytes()
        ):
            block = self._heartbeats = _HeartbeatBlock(self.plan, ids, hashed_slot)
        row = hashed_slot - block.first
        lo, hi = block.bounds[row], block.bounds[row + 1]
        if lo != hi:
            self.trace.record_heartbeat_losses(block.loss_slots[lo:hi], block.loss_ids[lo:hi])
        return block.delivered[row]
