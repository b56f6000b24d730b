"""The fault-injected message-passing runtime.

:class:`NetSimulator` executes the same :class:`~repro.runtime.agent
.NodeAgent` protocol machines as the lockstep :class:`~repro.runtime
.simulator.Simulator`, but every decoded message passes through an explicit
:class:`~repro.netsim.transport.Transport` before it reaches an agent:

* a message may be **dropped** (Bernoulli loss or a link partition) - the
  sender's interference still happened, only the delivery is lost;
* a message may be **delayed** - it matures in a later slot and is handed to
  the receiver then, provided the receiver is listening (half-duplex) and up;
* a node may be **crashed** - it is neither polled (consuming no randomness)
  nor delivered to until its recovery slot, and its agent sees
  :meth:`~repro.runtime.agent.NodeAgent.on_crash` /
  :meth:`~repro.runtime.agent.NodeAgent.on_recover` transitions;
* out-of-band **heartbeats** feed a :class:`~repro.netsim.detector
  .HeartbeatDetector`, whose view of liveness and progress is what round
  drivers act on instead of the lockstep engine's god's-eye agent reads.

Composed with :class:`~repro.netsim.transport.PerfectTransport`, every seam
reduces to the lockstep batch engine: the same poll order, the same decode
arithmetic, the same delivery order - so the zero-fault message trace and
protocol outcome are bit-identical to ``runtime.Simulator`` (the parity
tests pin this), and the lockstep engine remains the oracle for everything
the transport can perturb.

Delivery bookkeeping: at most one message reaches an agent per slot (the
radio decodes one frame).  A matured delayed message takes precedence over a
fresh decode in the same slot - it is older - and the displaced fresh frame
is counted in ``receiver_busy_drops``.  With zero latency the maturity queue
is empty and the rule never fires.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.runtime import OBS
from ..runtime.agent import NodeAgent
from ..runtime.simulator import Simulator
from ..runtime.trace import ExecutionTrace, SlotRecord
from ..sinr import Channel, Reception
from .detector import HeartbeatDetector
from .faults import FaultTrace
from .transport import PerfectTransport, Transport

__all__ = ["NetSimulator"]


class NetSimulator(Simulator):
    """Message-passing runtime: the batch slot engine behind a lossy transport.

    Args:
        agents: the per-node protocol agents.
        channel: the SINR channel instance.
        transport: delivery policy (drops, delays, crashes, partitions).
        detector: failure detector fed by out-of-band heartbeats; a default
            one monitoring every agent each slot is created if omitted.
        trace: optional pre-existing trace to append to.
        trace_level: trace backend to create when ``trace`` is ``None``.
    """

    def __init__(
        self,
        agents: Sequence[NodeAgent],
        channel: Channel,
        transport: Transport | None = None,
        *,
        detector: HeartbeatDetector | None = None,
        trace: ExecutionTrace | None = None,
        trace_level: str = "records",
    ) -> None:
        super().__init__(agents, channel, trace, trace_level=trace_level)
        self.transport: Transport = transport if transport is not None else PerfectTransport()
        self.detector = (
            detector
            if detector is not None
            else HeartbeatDetector(list(self._node_ids), interval=1)
        )
        unknown = set(self.detector.node_ids) - set(self._node_ids)
        if unknown:
            raise ConfigurationError(
                f"detector monitors ids outside the agent set: {sorted(unknown)[:5]}"
            )
        self._crashed = [False] * len(self.agents)
        #: mature slot -> [(sequence, dst position, reception)], FIFO by sequence.
        self._pending: dict[int, list[tuple[int, int, Reception]]] = {}
        self._pending_seq = 0
        #: per-node transmissions actually attempted (retries included).
        self.send_budget: dict[int, int] = {node_id: 0 for node_id in self._node_ids}
        #: fresh decodes displaced by a matured delayed message (or a matured
        #: message arriving while its receiver transmitted).
        self.receiver_busy_drops = 0
        #: matured deliveries lost because the receiver was down.
        self.crash_drops = 0

    # -- fault bookkeeping ---------------------------------------------------

    @property
    def fault_trace(self) -> FaultTrace | None:
        """The transport's fault recorder, when it keeps one."""
        return getattr(self.transport, "trace", None)

    def crashed_ids(self) -> frozenset[int]:
        """Ids of the nodes currently down."""
        return frozenset(
            node_id
            for node_id, crashed in zip(self._node_ids, self._crashed)
            if crashed
        )

    def _sync_crashes(self, slot: int) -> None:
        """Apply the transport's crash windows, firing agent transitions."""
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

    # -- engine seams --------------------------------------------------------

    def _poll_batch(self, slot: int) -> tuple[list[int], list[float], list[Any]]:
        self._sync_crashes(slot)
        if not any(self._crashed):
            tx_pos, powers, messages = super()._poll_batch(slot)
        else:
            # Crashed agents are not polled at all: they consume no
            # randomness, transmit nothing and do not listen.
            tx_pos, powers, messages = [], [], []
            listening = self._listening
            listening[:] = True
            for i, act_batch in enumerate(self._act_batch):
                if self._crashed[i]:
                    listening[i] = False
                    continue
                action = act_batch(slot)
                if action is not None:
                    tx_pos.append(i)
                    powers.append(action[0])
                    messages.append(action[1])
                    listening[i] = False
        for i in tx_pos:
            self.send_budget[self._node_ids[i]] += 1
        return tx_pos, powers, messages

    def _apply_transport(
        self,
        slot: int,
        receptions: list[Reception | None],
        pairs: list[tuple[int, int]],
    ) -> tuple[list[Reception | None], list[tuple[int, int]]]:
        """Filter decoded deliveries through the transport and the queue."""
        matured = self._pending.pop(slot, [])
        if pairs:
            dst_ids = np.array([dst for dst, _ in pairs], dtype=np.int64)
            src_ids = np.array([src for _, src in pairs], dtype=np.int64)
            delivered, delay = self.transport.admit(slot, src_ids, dst_ids)
            if bool(delivered.all()) and not delay.any() and not matured:
                return receptions, pairs
            kept_pairs: list[tuple[int, int]] = []
            for k, (dst_id, src_id) in enumerate(pairs):
                pos = self._pos_by_id[dst_id]
                if not delivered[k]:
                    receptions[pos] = None
                    continue
                if delay[k]:
                    reception = receptions[pos]
                    receptions[pos] = None
                    assert reception is not None
                    self._pending.setdefault(slot + int(delay[k]), []).append(
                        (self._pending_seq, pos, reception)
                    )
                    self._pending_seq += 1
                    continue
                kept_pairs.append((dst_id, src_id))
            pairs = kept_pairs
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
            if receptions[pos] is not None:
                # The older (matured) message wins the receive buffer.
                self.receiver_busy_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.receiver_busy_drops")
                pairs = [(dst, src) for dst, src in pairs if dst != self._node_ids[pos]]
            receptions[pos] = reception
            pairs.append((self._node_ids[pos], reception.sender.id))
        return receptions, pairs

    def _deliver_batch(self, slot: int, receptions: list[Reception | None]) -> None:
        for i, (observe, reception) in enumerate(zip(self._observe, receptions)):
            if self._crashed[i]:
                continue
            observe(slot, reception)

    def _emit_heartbeats(self, slot: int) -> None:
        detector = self.detector
        if not detector.expects_heartbeat(slot):
            return
        monitored = set(detector.node_ids)
        for i, node_id in enumerate(self._node_ids):
            if node_id not in monitored:
                continue
            if self._crashed[i] or not self.transport.heartbeat_delivered(node_id, slot):
                detector.observe_miss(node_id, slot)
            else:
                detector.observe_heartbeat(node_id, slot, done=self.agents[i].is_done())

    def _step_batch(self, label: str) -> SlotRecord | None:
        slot = self._slot
        tx_pos, powers, messages = self._poll_batch(slot)
        receptions, pairs = self._decode_batch(slot, tx_pos, powers, messages)
        receptions, pairs = self._apply_transport(slot, receptions, pairs)
        self._deliver_batch(slot, receptions)
        record = self.trace.append_slot(
            slot, [self._node_ids[i] for i in tx_pos], pairs, label
        )
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("netsim.slots")
            if tx_pos:
                registry.inc("netsim.sends", len(tx_pos))
            if pairs:
                registry.inc("netsim.deliveries", len(pairs))
        self._slot += 1
        self._emit_heartbeats(slot)
        return record

    # -- summaries -----------------------------------------------------------

    def fault_summary(self) -> dict[str, int]:
        """Counters of everything the transport did to this run.

        Includes the reliable-delivery tallies (``retries``/``timeouts``)
        summed over every agent that owns a :class:`~repro.netsim.delivery
        .ReliableOutbox` (zero when no agent uses reliable sends).
        """
        trace = self.fault_trace
        summary = trace.summary() if trace is not None else {
            "dropped": 0, "delayed": 0, "crashes": 0, "recoveries": 0,
            "heartbeat_losses": 0,
        }
        summary["receiver_busy_drops"] = self.receiver_busy_drops
        summary["crash_drops"] = self.crash_drops
        summary["transmissions"] = sum(self.send_budget.values())
        retries = 0
        timeouts = 0
        for agent in self.agents:
            outbox = getattr(agent, "outbox", None)
            if outbox is not None:
                retries += outbox.retries
                timeouts += len(outbox.timeouts)
        summary["retries"] = retries
        summary["timeouts"] = timeouts
        return summary
