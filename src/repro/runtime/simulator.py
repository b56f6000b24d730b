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
Every slot lands in a columnar :class:`~repro.runtime.trace.ExecutionTrace`.
The per-agent slot engine this replaced is kept in the test suite as its
parity oracle.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ..exceptions import ProtocolError
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import CachedChannel, Channel
from ..sinr.channel import ensure_positive_powers
from .agent import LockstepProgram
from .trace import ExecutionTrace

__all__ = ["Simulator", "spawn_agent_rngs"]

#: Positions of an empty slot (no transmitter, or no decode).
_NO_IDS = np.zeros(0, dtype=np.intp)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for ``k = 0 .. count``."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)


# NumPy's ``SeedSequence`` hash (pool size 4).  Its hash constant advances
# by one multiplication per hashed word whatever the word is, so every
# step's constants are fixed: 16 pool hashes, then 8 output words.  Each
# step hashes with (xor, mult) = (constant k, constant k + 1), one row per
# pool word.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)[:, None]
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)[:, None]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
#: The other three pool words of each source word, in SeedSequence's order.
_MIX_TARGETS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed.

    ``seeds`` are non-negative integers below ``2**64``; row ``k`` of the
    C-contiguous ``(len(seeds), 4)`` uint64 result is seed ``k``'s state.
    The entropy of a seed is its little-endian uint32 words, and the pool
    hashes a missing word as 0, so every seed is hashed as two words.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    # Pool word w of every seed is row w.
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _POOL_HASH[:4], _POOL_HASH[1:5])
    # Mix every word into the other three; the three targets of one source
    # are independent, so they go together.
    for src, dst in enumerate(_MIX_TARGETS):
        k = 4 + 3 * src
        hashed = _hashmix(pool[src], _POOL_HASH[k : k + 3], _POOL_HASH[k + 1 : k + 4])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_HASH[:8], _OUT_HASH[1:9])
    # Little-endian word pairs, whatever the host's byte order.
    state = np.empty((seeds.size, 4), dtype=np.uint64)
    state.T[:] = words[1::2]
    state <<= np.uint64(32)
    state.T[:] |= words[0::2]
    return state


class _SeedState(ISeedSequence):
    """A seed sequence whose PCG64 state words are already hashed.

    It answers only PCG64's request (four uint64 words) and cannot spawn.
    """

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a hashed seed state holds exactly four uint64 words")
        return self._state


def spawn_agent_rngs(rng: Generator, count: int) -> list[Generator]:
    """Create ``count`` independent child generators from a parent generator.

    Child ``i`` has the stream of ``default_rng(seed_i)`` for a 63-bit seed
    drawn from ``rng``: :func:`_seed_states` hashes every seed at once, and
    each child's PCG64 is seeded from its row.  A child's
    ``bit_generator.seed_seq`` holds only that row, so it cannot spawn.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [Generator(PCG64(_SeedState(row))) for row in _seed_states(seeds)]


class Simulator:
    """Runs a lockstep program over a shared SINR channel.

    Args:
        program: the protocol of every node, run as arrays.
        channel: the SINR channel instance.  A plain :class:`Channel` is
            upgraded to a :class:`CachedChannel` over the program's nodes;
            any other channel must be a :class:`CachedChannel` holding them.

    Raises:
        ProtocolError: for duplicate node ids, or a channel that cannot
            decode the program's nodes by index.
    """

    def __init__(self, program: LockstepProgram, channel: Channel):
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
        self._slot = 0
        self._node_ids: list[int] = ids
        self._ids = np.asarray(ids, dtype=np.int64)
        self._nodes = nodes
        self._listening = np.empty(len(nodes), dtype=bool)
        # Node position == cache index (the simulator built the channel
        # itself, or an identical universe was passed): the decode can run
        # against all columns with a cheap row gather and mask transmitters
        # afterwards.
        self._full_universe = len(channel.cache) == len(ids) and bool(
            np.array_equal(self._cache_idx, np.arange(len(ids)))
        )

    @property
    def current_slot(self) -> int:
        """Index of the next slot to execute."""
        return self._slot

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
            # ``ok`` is a fresh array: mask it in place.  Half-duplex:
            # transmitter columns never decode, nor do down nodes.  Winners
            # are picked only where ``ok`` holds: a transmitter's own column
            # never decodes (its own signal is infinite, the SINR NaN).
            best, _, ok = self.channel.resolve_indices_full(
                tx, powers, slot=slot, _decoded_only=True
            )
            ok[tx] = False
            if down is not None:
                ok[down] = False
            rx = ok.nonzero()[0]
            return rx, tx[best[rx]]
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
        decoded = np.flatnonzero(ok)
        return rx[decoded], tx[best[decoded]]

    def _record(
        self, slot: int, tx: np.ndarray, rx: np.ndarray, src: np.ndarray, label: str
    ) -> None:
        """Trace the slot (by position), count it and advance the clock."""
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
