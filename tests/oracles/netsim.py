"""The per-agent, per-node netsim runtime (oracle of ``NetSimulator``).

Before the fault plane was vectorized and protocols became array programs,
``NetSimulator`` polled one agent per node, asked the transport one scalar
question per node per slot - "is it crashed?", "did its heartbeat
arrive?" - and ``FaultyTransport.admit`` hashed drops and delays one sender
at a time, testing partitions receiver by receiver.  Those loops are kept
here verbatim in behaviour, so the parity tests can show the batched calls
make the same uint64 draws, record the same traces in the same order and
deliver the same frames.  The dict-and-set failure detector those loops fed
is kept alongside as the oracle of the array-backed ``HeartbeatDetector``.

The per-call forms the fault tables replaced are kept too: drops hashed
through the whole ``_hash_u64`` fold on every call, heartbeat loss hashed
one slot at a time, a partition's cut rebuilt for ``np.isin`` on every
call and a crash schedule scanned window by window.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._types import BoolArray, IntpArray
from repro.coins import _hash_u64, _uniform_open
from repro.exceptions import ProtocolError
from repro.netsim import (
    CrashSchedule,
    FaultPlan,
    FaultTrace,
    FaultyTransport,
    Partition,
    PerfectTransport,
    Transport,
)
from repro.netsim.faults import _DROP_STREAM, _HEARTBEAT_STREAM
from repro.obs.runtime import OBS
from repro.runtime import ExecutionTrace
from repro.sinr import CachedChannel, Channel, Reception, Transmission

from .agent import NodeAgent

__all__ = [
    "OracleFaultyTransport",
    "OracleHeartbeatDetector",
    "OracleNetSimulator",
    "crashed_ids_scan",
    "dropped_per_call",
    "heartbeat_lost_per_slot",
    "severs_per_call",
]


def severs_per_call(
    partition: Partition, src_ids: np.ndarray | int, dst_ids: np.ndarray, slot: int
) -> BoolArray:
    """``Partition.severs`` rebuilding the cut for ``np.isin`` on every call."""
    src = np.asarray(src_ids, dtype=np.int64)
    dst = np.asarray(dst_ids, dtype=np.int64)
    if not partition.active(slot):
        return np.zeros(np.broadcast_shapes(src.shape, dst.shape), dtype=bool)
    left = np.fromiter(partition.left, dtype=np.int64, count=len(partition.left))
    return np.isin(src, left) != np.isin(dst, left)


def dropped_per_call(
    plan: FaultPlan, src_ids: np.ndarray | int, dst_ids: np.ndarray, slot: int
) -> BoolArray:
    """``FaultPlan.dropped`` hashing the whole ``(stream, seed, src, dst,
    slot)`` fold and drawing the float uniform on every call."""
    src = np.asarray(src_ids, dtype=np.int64)
    dst = np.asarray(dst_ids, dtype=np.int64)
    out = np.zeros(np.broadcast_shapes(src.shape, dst.shape), dtype=bool)
    if plan.drop_prob > 0.0:
        out |= _uniform_open(_hash_u64(_DROP_STREAM, plan.seed, src, dst, slot)) < plan.drop_prob
    for partition in plan.partitions:
        out |= severs_per_call(partition, src, dst, slot)
    return out


def heartbeat_lost_per_slot(plan: FaultPlan, node_ids: np.ndarray, slot: int) -> BoolArray:
    """Which of ``node_ids``' heartbeats at hashed ``slot`` are lost, hashed
    for that one slot."""
    ids = np.asarray(node_ids, dtype=np.int64)
    prob = plan.heartbeat_loss_prob
    if prob <= 0.0:
        return np.zeros(ids.shape, dtype=bool)
    return _uniform_open(_hash_u64(_HEARTBEAT_STREAM, plan.seed, ids, slot)) < prob


def crashed_ids_scan(schedule: CrashSchedule, slot: int) -> frozenset[int]:
    """``CrashSchedule.crashed_ids`` scanning every window."""
    return frozenset(w.node_id for w in schedule.windows if w.covers(slot))


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
    """``FaultyTransport`` with the per-sender admit and scalar liveness
    (heartbeats are drawn one id at a time)."""

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
            latency = self.plan.latency
            delays = (
                np.zeros(len(targets), dtype=np.intp)
                if latency is None
                else latency.delays(self.plan.seed, int(src_id), targets, hashed_slot)
            )
            delivered[mask] = ~drops
            delay[mask] = np.where(drops, 0, delays)
            for dst_id, was_dropped, d in zip(targets, drops, delays):
                if was_dropped:
                    self.trace.dropped.append((slot, int(src_id), int(dst_id)))
                elif d:
                    self.trace.delayed.append((slot, int(src_id), int(dst_id), int(d)))
        if OBS.enabled:
            registry = OBS.registry
            drop_count = len(dst) - int(delivered.sum())
            if drop_count:
                registry.inc("netsim.dropped", drop_count)
            delay_count = int((delay > 0).sum())
            if delay_count:
                registry.inc("netsim.delayed", delay_count)
        return delivered, delay

    def is_crashed(self, node_id: int, slot: int) -> bool:
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
                self.trace.record_heartbeat_losses(
                    np.array([hashed_slot]), np.array([node_id])
                )
                return False
        return True

    def heartbeat_delivered(self, node_ids: np.ndarray, slot: int) -> BoolArray:
        return np.array(
            [self.node_heartbeat_delivered(int(node_id), slot) for node_id in node_ids],
            dtype=bool,
        )


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


class OracleNetSimulator:
    """The per-agent message-passing runtime (oracle of ``NetSimulator``).

    Steps one :class:`~tests.oracles.agent.NodeAgent` per node: crashes are
    probed node by node (``transport.is_crashed``), crashed agents are
    neither polled nor delivered to and learn of it through their
    ``on_crash`` / ``on_recover`` hooks, decoded frames are
    :class:`~repro.sinr.Reception` objects filtered through the transport
    one by one, delayed ones held in a FIFO queue until they mature, and
    every monitored node's heartbeat is probed on its own.  The detector
    must offer the per-node :class:`OracleHeartbeatDetector` updates.  The
    decode itself is the channel's whole-universe index decode, so the two
    runtimes touch the geometry store alike.
    """

    def __init__(
        self,
        agents: Sequence[NodeAgent],
        channel: Channel,
        transport: Transport | None = None,
        *,
        detector: OracleHeartbeatDetector | None = None,
    ) -> None:
        self.agents = list(agents)
        nodes = [agent.node for agent in self.agents]
        self._node_ids = [node.id for node in nodes]
        if len(set(self._node_ids)) != len(nodes):
            raise ProtocolError("duplicate node ids among agents")
        if type(channel) is Channel:
            channel = CachedChannel(channel.params, nodes)
        assert isinstance(channel, CachedChannel) and channel.cache.ids.tolist() == self._node_ids
        self.channel = channel
        self.transport = transport if transport is not None else PerfectTransport()
        self.detector = (
            detector if detector is not None else OracleHeartbeatDetector(self._node_ids)
        )
        self.trace = ExecutionTrace()
        self._slot = 0
        self._pos_by_id = {node_id: i for i, node_id in enumerate(self._node_ids)}
        self._crashed = [False] * len(nodes)
        self._listening = [True] * len(nodes)
        #: mature slot -> [(sequence, dst position, reception)], FIFO by sequence.
        self._pending: dict[int, list[tuple[int, int, Reception]]] = {}
        self._pending_seq = 0
        self._sends = [0] * len(nodes)
        self.receiver_busy_drops = 0
        self.crash_drops = 0

    @property
    def current_slot(self) -> int:
        return self._slot

    @property
    def fault_trace(self) -> FaultTrace | None:
        return getattr(self.transport, "trace", None)

    def crashed_ids(self) -> frozenset[int]:
        return frozenset(nid for nid, down in zip(self._node_ids, self._crashed) if down)

    @property
    def send_budget(self) -> dict[int, int]:
        return dict(zip(self._node_ids, self._sends))

    def step(self, label: str = "") -> None:
        slot = self._slot
        self._sync_crashes(slot)
        transmissions: list[Transmission] = []
        tx_pos: list[int] = []
        for i, agent in enumerate(self.agents):
            self._listening[i] = not self._crashed[i]
            if self._crashed[i]:
                continue
            action = agent.act(slot)
            if action is not None:
                transmissions.append(action)
                tx_pos.append(i)
                self._listening[i] = False
                self._sends[i] += 1
        receptions, rx_ids, src_ids = self._decode(slot, transmissions, tx_pos)
        rx_ids, src_ids = self._apply_transport(slot, receptions, rx_ids, src_ids)
        for i, agent in enumerate(self.agents):
            if not self._crashed[i]:
                agent.observe(slot, receptions[i])
        tx_ids = [self._node_ids[i] for i in tx_pos]
        self.trace.append_slot(slot, tx_ids, rx_ids, src_ids, label)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("netsim.slots")
            if tx_ids:
                registry.inc("netsim.sends", len(tx_ids))
            if rx_ids:
                registry.inc("netsim.deliveries", len(rx_ids))
        self._slot += 1
        self._emit_heartbeats(slot)

    def _sync_crashes(self, slot: int) -> None:
        trace = self.fault_trace
        for i, node_id in enumerate(self._node_ids):
            down = self.transport.is_crashed(node_id, slot)
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

    def _decode(
        self, slot: int, transmissions: list[Transmission], tx_pos: list[int]
    ) -> tuple[list[Reception | None], list[int], list[int]]:
        """Per position, the frame it decoded; plus the decodes' listener and
        sender ids in position order."""
        n = len(self.agents)
        receptions: list[Reception | None] = [None] * n
        rx_ids: list[int] = []
        src_ids: list[int] = []
        if not transmissions or len(transmissions) == n:
            return receptions, rx_ids, src_ids
        powers = np.array([t.power for t in transmissions], dtype=float)
        best, sinr, ok = self.channel.resolve_indices_full(
            np.array(tx_pos, dtype=np.intp), powers, slot=slot
        )
        for i in range(n):
            if ok[i] and self._listening[i]:
                sent = transmissions[int(best[i])]
                receptions[i] = Reception(
                    sender=sent.sender, message=sent.message, sinr=float(sinr[i])
                )
                rx_ids.append(self._node_ids[i])
                src_ids.append(sent.sender.id)
        return receptions, rx_ids, src_ids

    def _apply_transport(
        self,
        slot: int,
        receptions: list[Reception | None],
        rx_ids: list[int],
        src_ids: list[int],
    ) -> tuple[list[int], list[int]]:
        """Filter the slot's decodes through the transport and the maturity
        queue, in place; returns the delivered (listener, sender) ids."""
        matured = self._pending.pop(slot, [])
        pairs: list[tuple[int, int]] = []
        if rx_ids:
            delivered, delay = self.transport.admit(
                slot, np.array(src_ids, dtype=np.int64), np.array(rx_ids, dtype=np.int64)
            )
            for k, (dst_id, src_id) in enumerate(zip(rx_ids, src_ids)):
                pos = self._pos_by_id[dst_id]
                reception = receptions[pos]
                if not delivered[k]:
                    receptions[pos] = None
                elif delay[k]:
                    receptions[pos] = None
                    assert reception is not None
                    self._pending.setdefault(slot + int(delay[k]), []).append(
                        (self._pending_seq, pos, reception)
                    )
                    self._pending_seq += 1
                else:
                    pairs.append((dst_id, src_id))
        for _, pos, reception in sorted(matured, key=lambda item: item[0]):
            if self._crashed[pos]:
                self.crash_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.crash_drops")
                continue
            if not self._listening[pos]:
                # Half-duplex: the receiver transmitted in the arrival slot.
                self.receiver_busy_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.receiver_busy_drops")
                continue
            dst_id = self._node_ids[pos]
            if receptions[pos] is not None:
                # The older (matured) frame wins the receive buffer.
                self.receiver_busy_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.receiver_busy_drops")
                pairs = [(dst, src) for dst, src in pairs if dst != dst_id]
            receptions[pos] = reception
            pairs.append((dst_id, reception.sender.id))
        return [dst for dst, _ in pairs], [src for _, src in pairs]

    def _emit_heartbeats(self, slot: int) -> None:
        detector = self.detector
        if not detector.expects_heartbeat(slot):
            return
        monitored = set(detector.node_ids)
        for i, node_id in enumerate(self._node_ids):
            if node_id not in monitored:
                continue
            if self._crashed[i] or not self.transport.heartbeat_delivered(
                np.array([node_id], dtype=np.int64), slot
            )[0]:
                detector.observe_miss(node_id, slot)
            else:
                detector.observe_heartbeat(node_id, slot, done=self.agents[i].is_done())

    def fault_summary(self) -> dict[str, int]:
        trace = self.fault_trace
        summary = trace.summary() if trace is not None else {
            "dropped": 0, "delayed": 0, "crashes": 0, "recoveries": 0,
            "heartbeat_losses": 0,
        }
        summary["receiver_busy_drops"] = self.receiver_busy_drops
        summary["crash_drops"] = self.crash_drops
        summary["transmissions"] = sum(self._sends)
        return summary
