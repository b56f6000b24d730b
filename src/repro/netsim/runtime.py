"""The fault-injected message-passing runtime.

:class:`NetSimulator` executes the same protocols as the lockstep
:class:`~repro.runtime.simulator.Simulator` - per-node
:class:`~repro.runtime.agent.NodeAgent` machines or one array
:class:`~repro.runtime.agent.LockstepProgram` - but every decoded message
passes through an explicit :class:`~repro.netsim.transport.Transport` before
it is delivered:

* a message may be **dropped** (Bernoulli loss or a link partition) - the
  sender's interference still happened, only the delivery is lost;
* a message may be **delayed** - it matures in a later slot and is handed to
  the receiver then, provided the receiver is listening (half-duplex) and up;
* a node may be **crashed** - it neither transmits nor listens (an agent is
  not even polled, so it consumes no randomness) until its recovery slot.
  Agents learn of it through :meth:`~repro.runtime.agent.NodeAgent.on_crash`
  / :meth:`~repro.runtime.agent.NodeAgent.on_recover`; a program through
  :meth:`~repro.runtime.agent.LockstepProgram.on_crash` /
  :meth:`~repro.runtime.agent.LockstepProgram.on_recover` over the positions
  whose state changed;
* out-of-band **heartbeats** feed a :class:`~repro.netsim.detector
  .HeartbeatDetector`, whose view of liveness and progress is what round
  drivers act on instead of the lockstep engine's god's-eye reads.

Composed with :class:`~repro.netsim.transport.PerfectTransport`, every seam
reduces to the lockstep engine: the same transmitters, the same decode
arithmetic, the same delivery order - so the zero-fault message trace and
protocol outcome are bit-identical to ``runtime.Simulator`` (the parity
tests pin this).

Delivery bookkeeping: at most one message reaches a node per slot (the
radio decodes one frame).  A matured delayed message takes precedence over a
fresh decode in the same slot - it is older - and the displaced fresh frame
is counted in ``receiver_busy_drops``.  With zero latency the maturity queue
is empty and the rule never fires.  Agents get a delayed message back as its
:class:`~repro.sinr.Reception`; a program gets the int its
:meth:`~repro.runtime.agent.LockstepProgram.message` gave for the frame at
send time, through :meth:`~repro.runtime.agent.LockstepProgram.receive_late`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.runtime import OBS
from ..runtime.agent import LockstepProgram, NodeAgent
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
        agents: the per-node protocol agents, or one
            :class:`~repro.runtime.agent.LockstepProgram` running the
            protocol of every node as arrays.
        channel: the SINR channel instance.
        transport: delivery policy (drops, delays, crashes, partitions).
        detector: failure detector fed by out-of-band heartbeats; a default
            one monitoring every agent each slot is created if omitted.
        trace: optional pre-existing trace to append to (default: a fresh
            :class:`~repro.runtime.ColumnarTrace`).
    """

    def __init__(
        self,
        agents: Sequence[NodeAgent] | LockstepProgram,
        channel: Channel,
        transport: Transport | None = None,
        *,
        detector: HeartbeatDetector | None = None,
        trace: ExecutionTrace | None = None,
    ) -> None:
        super().__init__(agents, channel, trace)
        self.transport: Transport = transport if transport is not None else PerfectTransport()
        self._detector = (
            detector
            if detector is not None
            else HeartbeatDetector(list(self._node_ids), interval=1)
        )
        unknown = set(self._detector.node_ids) - set(self._node_ids)
        if unknown:
            raise ConfigurationError(
                f"detector monitors ids outside the agent set: {sorted(unknown)[:5]}"
            )
        self._crashed = np.zeros(len(self._nodes), dtype=bool)
        monitored = set(self._detector.node_ids)
        #: node positions the detector monitors, in node order.
        self._monitored_pos = np.array(
            [i for i, node_id in enumerate(self._node_ids) if node_id in monitored],
            dtype=np.intp,
        )
        self._is_done = [agent.is_done for agent in self.agents]
        #: agent path: mature slot -> [(sequence, dst position, reception)],
        #: FIFO by sequence.
        self._pending: dict[int, list[tuple[int, int, Reception]]] = {}
        self._pending_seq = 0
        #: program path: mature slot -> [(dst, src, message) position arrays],
        #: in send order.
        self._late: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        #: per-position transmissions actually attempted (retries included).
        self._sends = np.zeros(len(self._nodes), dtype=np.int64)
        #: fresh decodes displaced by a matured delayed message (or a matured
        #: message arriving while its receiver transmitted).
        self.receiver_busy_drops = 0
        #: matured deliveries lost because the receiver was down.
        self.crash_drops = 0

    # -- fault bookkeeping ---------------------------------------------------

    @property
    def detector(self) -> HeartbeatDetector:
        """The failure detector; fixed at construction, since the monitored
        positions are resolved against it once."""
        return self._detector

    @property
    def fault_trace(self) -> FaultTrace | None:
        """The transport's fault recorder, when it keeps one."""
        return getattr(self.transport, "trace", None)

    def crashed_ids(self) -> frozenset[int]:
        """Ids of the nodes currently down."""
        return frozenset(self._ids[self._crashed].tolist())

    @property
    def send_budget(self) -> dict[int, int]:
        """Per node id, the transmissions actually attempted (retries included)."""
        return dict(zip(self._node_ids, self._sends.tolist()))

    def _sync_crashes(self, slot: int) -> None:
        """Apply the transport's crash windows, firing the crash hooks of the
        nodes whose state changed, in position order."""
        down_ids = self.transport.crashed_ids(slot)
        if not down_ids and not self._crashed.any():
            return
        pos_by_id = self._pos_by_id
        now = np.zeros_like(self._crashed)
        now[[pos_by_id[node_id] for node_id in down_ids if node_id in pos_by_id]] = True
        changed = np.flatnonzero(now != self._crashed)
        if not changed.size:
            return
        self._crashed[changed] = now[changed]
        went_down = changed[now[changed]]
        came_up = changed[~now[changed]]
        trace = self.fault_trace
        if trace is not None:
            for i in went_down.tolist():
                trace.record_crash(slot, self._node_ids[i])
            for i in came_up.tolist():
                trace.record_recovery(slot, self._node_ids[i])
        if OBS.enabled:
            if went_down.size:
                OBS.registry.inc("netsim.crashes", int(went_down.size))
            if came_up.size:
                OBS.registry.inc("netsim.recoveries", int(came_up.size))
        program = self.program
        if program is not None:
            if went_down.size:
                program.on_crash(went_down, slot)
            if came_up.size:
                program.on_recover(came_up, slot)
            return
        for i in went_down.tolist():
            self.agents[i].on_crash(slot)
        for i in came_up.tolist():
            self.agents[i].on_recover(slot)

    # -- engine seams --------------------------------------------------------

    def _poll_batch(self, slot: int) -> tuple[list[int], list[float], list[Any]]:
        self._sync_crashes(slot)
        if not self._crashed.any():
            tx_pos, powers, messages = super()._poll_batch(slot)
        else:
            # Crashed agents are not polled at all: they consume no
            # randomness, transmit nothing and do not listen.
            tx_pos, powers, messages = [], [], []
            listening = self._listening
            listening[:] = True
            crashed = self._crashed.tolist()
            for i, act_batch in enumerate(self._act_batch):
                if crashed[i]:
                    listening[i] = False
                    continue
                action = act_batch(slot)
                if action is not None:
                    tx_pos.append(i)
                    powers.append(action[0])
                    messages.append(action[1])
                    listening[i] = False
        self._sends[tx_pos] += 1
        return tx_pos, powers, messages

    def _apply_transport(
        self,
        slot: int,
        receptions: list[Reception | None],
        rx_ids: np.ndarray,
        src_ids: np.ndarray,
    ) -> tuple[list[Reception | None], np.ndarray, np.ndarray]:
        """Agent path of the transport: filter decoded deliveries through it
        and the maturity queue."""
        matured = self._pending.pop(slot, [])
        if not rx_ids.size and not matured:
            return receptions, rx_ids, src_ids
        pairs: list[tuple[int, int]] = []
        if rx_ids.size:
            delivered, delay = self.transport.admit(slot, src_ids, rx_ids)
            if bool(delivered.all()) and not delay.any() and not matured:
                return receptions, rx_ids, src_ids
            for k, (dst_id, src_id) in enumerate(zip(rx_ids.tolist(), src_ids.tolist())):
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
            if receptions[pos] is not None:
                # The older (matured) message wins the receive buffer.
                self.receiver_busy_drops += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.receiver_busy_drops")
                pairs = [(dst, src) for dst, src in pairs if dst != self._node_ids[pos]]
            receptions[pos] = reception
            pairs.append((self._node_ids[pos], reception.sender.id))
        kept = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return receptions, kept[:, 0], kept[:, 1]

    def _deliver_batch(self, slot: int, receptions: list[Reception | None]) -> None:
        crashed = self._crashed.tolist()
        for i, (observe, reception) in enumerate(zip(self._observe, receptions)):
            if crashed[i]:
                continue
            observe(slot, reception)

    def _emit_heartbeats(self, slot: int) -> None:
        """One heartbeat slot: crashed nodes miss, live ones are hashed."""
        detector = self._detector
        if not detector.expects_heartbeat(slot):
            return
        monitored = self._monitored_pos
        down = self._crashed[monitored]
        live = monitored[~down]
        delivered = self.transport.heartbeat_delivered(self._ids[live], slot)
        arrived = live[delivered]
        missed = np.concatenate((monitored[down], live[~delivered]))
        if self.program is not None:
            done = self.program.done()[arrived]
        else:
            is_done = self._is_done
            done = [is_done[i]() for i in arrived.tolist()]
        detector.observe(self._ids[arrived], done, self._ids[missed])

    def _step_batch(self, label: str) -> SlotRecord | None:
        slot = self._slot
        tx_pos, powers, messages = self._poll_batch(slot)
        receptions, rx_ids, src_ids = self._decode_batch(slot, tx_pos, powers, messages)
        receptions, rx_ids, src_ids = self._apply_transport(slot, receptions, rx_ids, src_ids)
        self._deliver_batch(slot, receptions)
        return self._finish_slot(slot, self._ids[tx_pos], rx_ids, src_ids, label)

    def _step_program(self, label: str) -> SlotRecord | None:
        slot = self._slot
        program = self.program
        assert program is not None
        self._sync_crashes(slot)
        crashed = self._crashed
        tx, powers = program.transmit(slot)
        up = ~crashed[tx]
        if not up.all():
            tx, powers = tx[up], powers[up]
        self._sends[tx] += 1
        rx, src = self._decode_program(slot, tx, powers, crashed)
        rx, src, late = self._admit_positions(slot, tx, rx, src)
        program.receive(slot, rx, src)
        if late is not None:
            program.receive_late(slot, *late)
            rx = np.concatenate((rx, late[0]))
            src = np.concatenate((src, late[1]))
        ids = self._ids
        return self._finish_slot(slot, ids[tx], ids[rx], ids[src], label)

    def _admit_positions(
        self, slot: int, tx: np.ndarray, rx: np.ndarray, src: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
        """Program path of the transport: the fresh deliveries that arrive
        now, and the delayed ones maturing now as ``(listeners, senders,
        messages)`` (``None`` when there are none), all by position."""
        if rx.size:
            ids = self._ids
            delivered, delay = self.transport.admit(slot, ids[src], ids[rx])
            later = delay > 0
            if later.any():
                # Held with what the program says each frame carries.
                dst, sender, delay = rx[later], src[later], delay[later]
                message = self.program.message(slot, sender)
                for d in sorted(set(delay.tolist())):
                    at = delay == d
                    self._late.setdefault(slot + d, []).append((dst[at], sender[at], message[at]))
                delivered = delivered & ~later
            if not delivered.all():
                rx, src = rx[delivered], src[delivered]
        chunks = self._late.pop(slot, None)
        if chunks is None:
            return rx, src, None
        dst, sender, message = (np.concatenate(column) for column in zip(*chunks))
        n = len(self._nodes)
        crashed = self._crashed[dst]
        sending = np.zeros(n, dtype=bool)
        sending[tx] = True
        # Half-duplex: a receiver that transmitted in the arrival slot misses it.
        busy = ~crashed & sending[dst]
        kept = ~(crashed | busy)
        dst, sender, message = dst[kept], sender[kept], message[kept]
        # The older (matured) frame wins the receive buffer: the last one
        # matured for a receiver displaces earlier ones and any fresh frame.
        order = np.arange(dst.size)
        last = np.full(n, -1, dtype=np.intp)
        np.maximum.at(last, dst, order)
        wins = last[dst] == order
        taken = np.zeros(n, dtype=bool)
        taken[dst] = True
        fresh = ~taken[rx]
        crash_drops = int(crashed.sum())
        busy_drops = int(busy.sum()) + int(dst.size - wins.sum()) + int(rx.size - fresh.sum())
        self.crash_drops += crash_drops
        self.receiver_busy_drops += busy_drops
        if OBS.enabled:
            if crash_drops:
                OBS.registry.inc("netsim.crash_drops", crash_drops)
            if busy_drops:
                OBS.registry.inc("netsim.receiver_busy_drops", busy_drops)
        return rx[fresh], src[fresh], (dst[wins], sender[wins], message[wins])

    def _finish_slot(
        self, slot: int, tx_ids: np.ndarray, rx_ids: np.ndarray, src_ids: np.ndarray, label: str
    ) -> SlotRecord | None:
        """Trace and count the slot, advance the clock, emit heartbeats."""
        record = self.trace.append_slot(slot, tx_ids, rx_ids, src_ids, label)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("netsim.slots")
            if tx_ids.size:
                registry.inc("netsim.sends", int(tx_ids.size))
            if rx_ids.size:
                registry.inc("netsim.deliveries", int(rx_ids.size))
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
        summary["transmissions"] = int(self._sends.sum())
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
