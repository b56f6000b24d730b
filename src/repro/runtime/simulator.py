"""Lock-step slotted simulator.

The simulator advances global slotted time for one
:class:`~repro.runtime.agent.LockstepProgram` - a protocol whose per-node
state lives in arrays.  In every slot it asks the program which positions
transmit and at which powers, resolves the slot through the SINR channel,
and hands the program the decoded (listener, sender) positions.  This is
exactly the execution model of the paper: synchronized clocks, slotted
time, a single shared channel, no carrier sensing.

The decode goes through
:meth:`~repro.sinr.channel.CachedChannel.resolve_indices` (or its
whole-universe form) in one vectorized pass that gathers its
attenuation/fade blocks from the channel's backing
:class:`~repro.state.NetworkState`; no per-node Python runs in between.
Every stepped slot lands in a columnar
:class:`~repro.runtime.trace.ExecutionTrace`, unless the simulator was made
with ``record=False`` (a caller that never reads the trace);
:meth:`Simulator.advance` lets idle slots pass without stepping them.  The
per-agent slot engine this replaced is kept in the test suite as its parity
oracle.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ProtocolError
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import CachedChannel, Channel
from ..sinr.channel import ensure_positive_powers
from .agent import LockstepProgram
from .trace import ExecutionTrace

__all__ = ["Simulator"]

#: Positions of an empty slot (no transmitter, or no decode).
_NO_IDS = np.zeros(0, dtype=np.intp)


class Simulator:
    """Runs a lockstep program over a shared SINR channel.

    Args:
        program: the protocol of every node, run as arrays.
        channel: the SINR channel instance.  A plain :class:`Channel` is
            upgraded to a :class:`CachedChannel` over the program's nodes;
            any other channel must be a :class:`CachedChannel` holding them.
        record: whether stepped slots are appended to :attr:`trace`; without
            it the trace stays empty.

    Raises:
        ProtocolError: for duplicate node ids, or a channel that cannot
            decode the program's nodes by index.
    """

    def __init__(self, program: LockstepProgram, channel: Channel, *, record: bool = True):
        nodes = list(program.nodes)
        ids = [node.id for node in nodes]
        if len(ids) != len(set(ids)):
            raise ProtocolError("duplicate node ids among the program's nodes")
        # The node set is fixed for the simulator's lifetime, so a plain
        # channel is upgraded to one viewing a NetworkState over the
        # nodes (its store chosen by size), which every slot's decode
        # gathers from.  A subclass may override its decode, so it cannot
        # be gathered from.
        if type(channel) is Channel:
            channel = CachedChannel(channel.params, nodes)
        missing = ProtocolError("a lockstep program needs a CachedChannel holding all its nodes")
        if type(channel) is not CachedChannel:
            raise missing
        self._ids = np.asarray(ids, dtype=np.int64)
        # Node position == cache index (the simulator built the channel
        # itself, or an identical universe was passed): the decode can run
        # against all columns with a cheap row gather and mask transmitters
        # afterwards.
        self._full_universe = bool(np.array_equal(channel.cache.ids, self._ids))
        if self._full_universe:
            self._cache_idx = np.arange(len(ids), dtype=np.intp)
        else:
            try:
                # Index of each node in the channel's node cache.
                self._cache_idx = np.array(
                    [channel.cache.index_of_id(node_id) for node_id in ids], dtype=np.intp
                )
            except KeyError:
                raise missing from None
        self.channel = channel
        self.program = program
        self.trace = ExecutionTrace()
        self._tracing = record
        self._slot = 0
        self._node_ids: list[int] = ids
        self._nodes = nodes
        self._listening = np.empty(len(nodes), dtype=bool)

    @property
    def current_slot(self) -> int:
        """Index of the next slot to execute."""
        return self._slot

    def advance(self, slots: int) -> None:
        """Let ``slots`` idle slots pass: the clock moves on, and nothing is
        polled, decoded, traced or counted (``sim.slots`` counts stepped
        slots only).  For a caller that knows the program would neither
        transmit nor change state in them."""
        self._slot += slots

    def step(self, label: str = "") -> None:
        """Execute one slot."""
        # The one stepping entry point of both engines: the message-passing
        # runtime overrides only the slot body.
        self._step_slot(label)

    def _step_slot(self, label: str) -> None:
        """One slot of the program: poll, decode and deliver as arrays."""
        slot = self._slot
        program = self.program
        tx, powers = program.transmit(slot)
        if not tx.size:
            # Nobody transmits (about half of Init's slots): nothing to decode.
            program.receive(slot, _NO_IDS, _NO_IDS)
            self._record(slot, _NO_IDS, _NO_IDS, _NO_IDS, label)
            return
        rx, src = self._decode_program(slot, tx, powers)
        program.receive(slot, rx, src)
        self._record(slot, tx, rx, src, label)

    def _decode_program(
        self, slot: int, tx: np.ndarray, powers: np.ndarray, down: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode a program's transmitters at ``powers``, by position.

        Every position that neither transmits nor is marked in ``down``
        listens.  Returns the decoding positions and the position each one
        decoded.
        """
        if not tx.size:
            return _NO_IDS, _NO_IDS
        ensure_positive_powers(powers)
        if tx.size == len(self._nodes):
            return _NO_IDS, _NO_IDS
        if self._full_universe:
            # Half-duplex holds by itself: a transmitter's own column never
            # decodes (its own signal is infinite, the SINR NaN).  Winners
            # come only for the decoding columns; down nodes drop out after.
            best, _, ok = self.channel.resolve_indices_full(
                tx, powers, slot=slot, _decoded_only=True
            )
            rx, src = ok.nonzero()[0], tx[best]
            if down is not None:
                up = ~down[rx]
                rx, src = rx[up], src[up]
            return rx, src
        listening = self._listening
        if down is None:
            listening[:] = True
        else:
            np.logical_not(down, out=listening)
        listening[tx] = False
        rx = np.flatnonzero(listening)
        best, _, ok = self.channel.resolve_indices(
            self._cache_idx[tx], self._cache_idx[rx], powers, slot=slot, _decoded_only=True
        )
        return rx[ok.nonzero()[0]], tx[best]

    def _record(
        self, slot: int, tx: np.ndarray, rx: np.ndarray, src: np.ndarray, label: str
    ) -> None:
        """Trace the slot (by position), count it and advance the clock."""
        if self._tracing:
            self.trace._append_owned(slot, tx, rx, src, label, self._ids)
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("sim.slots")
            if tx.size:
                registry.inc("sim.transmissions", int(tx.size))
            if rx.size:
                registry.inc("sim.receptions", int(rx.size))
        self._slot += 1

    def run(self, slots: int, label: str = "") -> ExecutionTrace:
        """Execute a fixed number of slots."""
        if slots < 0:
            raise ValueError("slots must be non-negative")
        with span("sim.run", slots=slots, label=label):
            for _ in range(slots):
                self.step(label)
        return self.trace
