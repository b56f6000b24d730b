"""The per-node netsim fault loops (oracle of the batched fault plane).

Before the fault plane was vectorized, ``NetSimulator`` asked the transport
one scalar question per node per slot - "is it crashed?", "did its heartbeat
arrive?" - and ``FaultyTransport.admit`` hashed drops and delays one sender
at a time, testing partitions receiver by receiver.  Those loops are kept
here verbatim in behaviour, so the parity tests can show the batched calls
make the same uint64 draws and record the same traces in the same order.
The dict-and-set failure detector those loops fed is kept alongside as the
oracle of the array-backed ``HeartbeatDetector``.
"""

from __future__ import annotations

import numpy as np

from repro._types import BoolArray, IntpArray
from repro.dynamics.gain import _hash_u64, _uniform_open
from repro.netsim import FaultPlan, FaultyTransport, NetSimulator
from repro.netsim.faults import _DROP_STREAM, _HEARTBEAT_STREAM
from repro.obs.runtime import OBS

__all__ = ["OracleFaultyTransport", "OracleHeartbeatDetector", "OracleNetSimulator"]


def _dropped_one_sender(plan: FaultPlan, src_id: int, dst: np.ndarray, slot: int) -> BoolArray:
    """Drop decisions for one sender's message, partitions per receiver."""
    out = np.zeros(dst.shape, dtype=bool)
    if plan.drop_prob > 0.0:
        u = _uniform_open(_hash_u64(_DROP_STREAM, plan.seed, src_id, dst, slot))
        out |= u < plan.drop_prob
    for partition in plan.partitions:
        if partition.active(slot):
            src_left = src_id in partition.left
            out |= np.fromiter(
                ((int(d) in partition.left) != src_left for d in dst),
                dtype=bool,
                count=len(dst),
            )
    return out


class OracleFaultyTransport(FaultyTransport):
    """``FaultyTransport`` with the per-sender admit and scalar liveness."""

    __slots__ = ()

    def admit(
        self, slot: int, src_ids: np.ndarray, dst_ids: np.ndarray
    ) -> tuple[BoolArray, IntpArray]:
        src = np.asarray(src_ids, dtype=np.int64)
        dst = np.asarray(dst_ids, dtype=np.int64)
        hashed_slot = slot + self.slot_offset
        delivered = np.ones(len(dst), dtype=bool)
        delay = np.zeros(len(dst), dtype=np.intp)
        for src_id in np.unique(src):
            mask = src == src_id
            targets = dst[mask]
            drops = _dropped_one_sender(self.plan, int(src_id), targets, hashed_slot)
            delays = self.plan.delays(int(src_id), targets, hashed_slot)
            delivered[mask] = ~drops
            delay[mask] = np.where(drops, 0, delays)
            for dst_id, was_dropped, d in zip(targets, drops, delays):
                if was_dropped:
                    self.trace.record_drop(slot, int(src_id), int(dst_id))
                elif d:
                    self.trace.record_delay(slot, int(src_id), int(dst_id), int(d))
        if OBS.enabled:
            registry = OBS.registry
            drop_count = len(dst) - int(delivered.sum())
            if drop_count:
                registry.inc("netsim.dropped", drop_count)
            delay_count = int((delay > 0).sum())
            if delay_count:
                registry.inc("netsim.delayed", delay_count)
        return delivered, delay

    def node_crashed(self, node_id: int, slot: int) -> bool:
        """Scalar crash probe over the plan's windows."""
        hashed_slot = slot + self.slot_offset
        return any(
            w.node_id == node_id and w.covers(hashed_slot) for w in self.plan.crashes.windows
        )

    def node_heartbeat_delivered(self, node_id: int, slot: int) -> bool:
        """Scalar heartbeat draw; records the loss like the batched form."""
        hashed_slot = slot + self.slot_offset
        plan = self.plan
        prob = plan.drop_prob if plan.heartbeat_drop_prob is None else plan.heartbeat_drop_prob
        if prob > 0.0:
            u = _uniform_open(_hash_u64(_HEARTBEAT_STREAM, plan.seed, node_id, hashed_slot))
            if u < prob:
                self.trace.record_heartbeat_loss(hashed_slot, node_id)
                return False
        return True


class OracleHeartbeatDetector:
    """Per-node dict/set failure detector, updated one heartbeat at a time."""

    def __init__(self, node_ids: list[int], *, interval: int = 1, miss_threshold: int = 3):
        self.node_ids = list(node_ids)
        self._interval = interval
        self._threshold = miss_threshold
        self._misses = {node_id: 0 for node_id in self.node_ids}
        self._suspected: set[int] = set()
        self._done = {node_id: False for node_id in self.node_ids}

    def expects_heartbeat(self, slot: int) -> bool:
        return slot % self._interval == 0

    def observe_heartbeat(self, node_id: int, slot: int, *, done: bool) -> None:
        self._misses[node_id] = 0
        self._suspected.discard(node_id)
        self._done[node_id] = done
        if OBS.enabled:
            OBS.registry.inc("netsim.heartbeats")

    def observe_miss(self, node_id: int, slot: int) -> None:
        misses = self._misses[node_id] + 1
        self._misses[node_id] = misses
        if OBS.enabled:
            OBS.registry.inc("netsim.heartbeat_misses")
        if misses >= self._threshold:
            if OBS.enabled and node_id not in self._suspected:
                OBS.registry.inc("netsim.suspicions")
            self._suspected.add(node_id)

    def suspected_ids(self) -> frozenset[int]:
        return frozenset(self._suspected)

    def alive_view(self) -> list[int]:
        return [node_id for node_id in self.node_ids if node_id not in self._suspected]

    def active_view(self) -> int:
        return sum(
            1
            for node_id in self.node_ids
            if node_id not in self._suspected and not self._done[node_id]
        )


class OracleNetSimulator(NetSimulator):
    """``NetSimulator`` probing crashes and heartbeats one node at a time.

    Requires an :class:`OracleFaultyTransport`; pass an
    :class:`OracleHeartbeatDetector` to keep the detector per-node too.
    """

    transport: OracleFaultyTransport

    def _sync_crashes(self, slot: int) -> None:
        trace = self.fault_trace
        for i, node_id in enumerate(self._node_ids):
            down = self.transport.node_crashed(node_id, slot)
            if down == self._crashed[i]:
                continue
            self._crashed[i] = down
            if down:
                self.agents[i].on_crash(slot)
                if trace is not None:
                    trace.record_crash(slot, node_id)
                if OBS.enabled:
                    OBS.registry.inc("netsim.crashes")
            else:
                self.agents[i].on_recover(slot)
                if trace is not None:
                    trace.record_recovery(slot, node_id)
                if OBS.enabled:
                    OBS.registry.inc("netsim.recoveries")

    def _emit_heartbeats(self, slot: int) -> None:
        detector = self.detector
        if not detector.expects_heartbeat(slot):
            return
        monitored = set(detector.node_ids)
        for i, node_id in enumerate(self._node_ids):
            if node_id not in monitored:
                continue
            if self._crashed[i] or not self.transport.node_heartbeat_delivered(node_id, slot):
                detector.observe_miss(node_id, slot)
            else:
                detector.observe_heartbeat(node_id, slot, done=self.agents[i].is_done())
