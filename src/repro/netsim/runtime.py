"""The fault-injected message-passing runtime.

:class:`NetSimulator` steps the same
:class:`~repro.runtime.agent.LockstepProgram` as the lockstep
:class:`~repro.runtime.simulator.Simulator`, but every decoded frame passes
through an explicit :class:`~repro.netsim.transport.Transport` before it is
delivered:

* a frame may be **dropped** (Bernoulli loss or a link partition) - the
  sender's interference still happened, only the delivery is lost;
* a frame may be **delayed** - it matures in a later slot and is handed to
  the receiver then, provided the receiver is listening (half-duplex) and up;
* a node may be **crashed** - it neither transmits nor listens until its
  recovery slot.  The program learns of it through
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

Delivery bookkeeping: at most one frame reaches a node per slot (the radio
decodes one frame).  A matured delayed frame takes precedence over a fresh
decode in the same slot - it is older - and the displaced fresh frame is
counted in ``receiver_busy_drops``.  With zero latency the maturity queue is
empty and the rule never fires.  A delayed frame is held as the int the
program's :meth:`~repro.runtime.agent.LockstepProgram.message` gave for it
at send time and handed back through
:meth:`~repro.runtime.agent.LockstepProgram.receive_late`.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..obs.runtime import OBS
from ..runtime.agent import LockstepProgram
from ..runtime.simulator import Simulator
from ..sinr import Channel
from .detector import HeartbeatDetector
from .faults import FaultTrace
from .transport import PerfectTransport, Transport

__all__ = ["NetSimulator"]


class NetSimulator(Simulator):
    """Message-passing runtime: the lockstep slot engine behind a lossy transport.

    Args:
        program: the protocol of every node, run as arrays.
        channel: the SINR channel instance.
        transport: delivery policy (drops, delays, crashes, partitions).
        detector: failure detector fed by out-of-band heartbeats; a default
            one monitoring every node each slot is created if omitted.
    """

    def __init__(
        self,
        program: LockstepProgram,
        channel: Channel,
        transport: Transport | None = None,
        *,
        detector: HeartbeatDetector | None = None,
    ) -> None:
        super().__init__(program, channel)
        self.transport: Transport = transport if transport is not None else PerfectTransport()
        self._detector = (
            detector
            if detector is not None
            else HeartbeatDetector(list(self._node_ids), interval=1)
        )
        unknown = set(self._detector.node_ids) - set(self._node_ids)
        if unknown:
            raise ConfigurationError(
                f"detector monitors ids outside the node set: {sorted(unknown)[:5]}"
            )
        self._crashed = np.zeros(len(self._nodes), dtype=bool)
        #: the transport's down set at the last synced slot; the same object
        #: back means nothing changed.
        self._down_ids: frozenset[int] | None = None
        self._pos_by_id = {node_id: i for i, node_id in enumerate(self._node_ids)}
        monitored = set(self._detector.node_ids)
        #: node positions the detector monitors, in node order.
        self._monitored_pos = np.array(
            [i for i, node_id in enumerate(self._node_ids) if node_id in monitored],
            dtype=np.intp,
        )
        #: the detector rows of those positions.
        self._monitored_rows = self._detector.rows(self._ids[self._monitored_pos])
        #: per detector row, its node position.
        self._row_pos = np.empty(len(self._detector.node_ids), dtype=np.intp)
        self._row_pos[self._monitored_rows] = self._monitored_pos
        #: (ids, detector rows) of the monitored nodes that are up, in node
        #: order; rebuilt when a crash or recovery changes them.
        self._heartbeat_set: tuple[np.ndarray, np.ndarray] | None = None
        #: mature slot -> [(dst, src, message) position arrays], in send order.
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
        if down_ids is self._down_ids:
            return
        self._down_ids = down_ids
        if not down_ids and not self._crashed.any():
            return
        pos_by_id = self._pos_by_id
        now = np.zeros_like(self._crashed)
        now[[pos_by_id[node_id] for node_id in down_ids if node_id in pos_by_id]] = True
        changed = np.flatnonzero(now != self._crashed)
        if not changed.size:
            return
        self._crashed[changed] = now[changed]
        self._heartbeat_set = None
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
        if went_down.size:
            self.program.on_crash(went_down, slot)
        if came_up.size:
            self.program.on_recover(came_up, slot)

    # -- engine ------------------------------------------------------------

    def _emit_heartbeats(self, slot: int) -> None:
        """One heartbeat slot: crashed nodes miss, live ones are hashed, and
        the detector queues the outcome."""
        detector = self._detector
        if not detector.expects_heartbeat(slot):
            return
        if self._heartbeat_set is None:
            up = ~self._crashed[self._monitored_pos]
            self._heartbeat_set = (
                self._ids[self._monitored_pos[up]],
                self._monitored_rows[up],
            )
        live_ids, live_rows = self._heartbeat_set
        hit = np.zeros(self._row_pos.size, dtype=bool)
        hit[live_rows] = self.transport.heartbeat_delivered(live_ids, slot)
        detector.observe_slot(hit, self.program.done()[self._row_pos])

    def _step_slot(self, label: str) -> None:
        """One slot: crashes, poll, decode, transport, deliver, heartbeats."""
        slot = self._slot
        program = self.program
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
        self._finish_slot(slot, tx, rx, src, label)

    def _admit_positions(
        self, slot: int, tx: np.ndarray, rx: np.ndarray, src: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
        """The transport's verdict on the slot: the fresh deliveries that arrive
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
        self, slot: int, tx: np.ndarray, rx: np.ndarray, src: np.ndarray, label: str
    ) -> None:
        """Trace (by position) and count the slot, advance the clock, emit
        heartbeats."""
        self.trace._append_owned(slot, tx, rx, src, label, self._ids)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("netsim.slots")
            if tx.size:
                registry.inc("netsim.sends", int(tx.size))
            if rx.size:
                registry.inc("netsim.deliveries", int(rx.size))
        self._slot += 1
        self._emit_heartbeats(slot)

    # -- summaries -----------------------------------------------------------

    def fault_summary(self) -> dict[str, int]:
        """Counters of everything the transport did to this run."""
        trace = self.fault_trace
        summary = trace.summary() if trace is not None else {
            "dropped": 0, "delayed": 0, "crashes": 0, "recoveries": 0,
            "heartbeat_losses": 0,
        }
        summary["receiver_busy_drops"] = self.receiver_busy_drops
        summary["crash_drops"] = self.crash_drops
        summary["transmissions"] = int(self._sends.sum())
        return summary
