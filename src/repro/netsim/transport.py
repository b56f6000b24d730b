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
heartbeats and :meth:`Transport.crashed_ids` its whole down set, so a slot
costs one vectorized hash call per fault stream rather than one per node.

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

__all__ = ["FaultyTransport", "PerfectTransport", "Transport"]


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
        """Ids of every node down at ``slot``."""

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
        return frozenset()

    def heartbeat_delivered(self, node_ids: np.ndarray, slot: int) -> BoolArray:
        return np.ones(len(node_ids), dtype=bool)


class FaultyTransport(Transport):
    """Applies a :class:`FaultPlan` to every delivery and liveness query.

    Args:
        plan: the fault configuration.
        trace: recorder for injected faults (a fresh one if omitted).
        slot_offset: added to every slot before hashing, so chained runs
            (main run, then a completion patch) draw from fresh counters.
    """

    __slots__ = ("_heartbeat_keys", "plan", "slot_offset", "trace")

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
        #: (ids, :meth:`FaultPlan.heartbeat_keys` of them) for the id set
        #: polled last; a run polls the same live set slot after slot.
        self._heartbeat_keys: tuple[np.ndarray, np.ndarray] | None = None

    def admit(
        self, slot: int, src_ids: np.ndarray, dst_ids: np.ndarray
    ) -> tuple[BoolArray, IntpArray]:
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        hashed_slot = slot + self.slot_offset
        drops = self.plan.dropped(src, dst, hashed_slot)
        delay = np.where(drops, 0, self.plan.delays(src, dst, hashed_slot))
        delivered = ~drops
        delayed = delay > 0
        if drops.any() or delayed.any():
            # Trace order: by sender id, then by pair order within a sender.
            order = np.argsort(src, kind="stable")
            trace = self.trace
            for k in order[drops[order]].tolist():
                trace.record_drop(slot, int(src[k]), int(dst[k]))
            for k in order[delayed[order]].tolist():
                trace.record_delay(slot, int(src[k]), int(dst[k]), int(delay[k]))
        if OBS.enabled:
            registry = OBS.registry
            drop_count = int(drops.sum())
            if drop_count:
                registry.inc("netsim.dropped", drop_count)
            delay_count = int(delayed.sum())
            if delay_count:
                registry.inc("netsim.delayed", delay_count)
        return delivered, delay

    def crashed_ids(self, slot: int) -> frozenset[int]:
        return self.plan.crashes.crashed_ids(slot + self.slot_offset)

    def heartbeat_delivered(self, node_ids: np.ndarray, slot: int) -> BoolArray:
        ids = np.asarray(node_ids, dtype=np.int64)
        hashed_slot = slot + self.slot_offset
        keys = None
        if self.plan.heartbeat_loss_prob > 0.0:
            cached = self._heartbeat_keys
            if cached is None or not np.array_equal(cached[0], ids):
                cached = self._heartbeat_keys = (ids.copy(), self.plan.heartbeat_keys(ids))
            keys = cached[1]
        lost = self.plan.heartbeat_dropped(ids, hashed_slot, keys)
        if lost.any():
            self.trace.record_heartbeat_losses(hashed_slot, ids[lost].tolist())
        return ~lost
