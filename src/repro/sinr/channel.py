"""The shared wireless channel.

The channel is the *only* means of communication in the paper's model: in
each slot some nodes transmit (each with a chosen power and message) and every
non-transmitting node receives the message of the strongest sender whose SINR
at that node meets the threshold ``beta`` - or nothing.  The channel has no
notion of time; its callers count slots and pass each slot's index on for
slot-dependent fading.

There is one decode chain, on integer indices into a
:class:`~repro.sinr.arrays.NodeArrayCache`: :meth:`Channel.resolve_indices`
and :meth:`Channel.resolve_indices_full` run ``_decode_block`` ->
``_decode_received``, one argmax/SINR/threshold pass over the
transmitter-to-listener attenuation rectangle of the cache's store.  With a
``workspace`` (:class:`~repro.state.DecodeWorkspace`) the kernels write into
preallocated buffers, bit-identically.  The whole-universe decode over a
tiled store's row cache (``_decode_rows``) runs the same kernels on
listener-column slabs across the slab workers (``repro.state.slabs``),
bit-identically at any worker count.  The caller owns the protocol
invariants (distinct senders, no transmitting listener, positive powers);
:meth:`CachedChannel.decoded_senders` keeps them for callers in node ids.

Two adapters over the chain remain only because perfbench's tracer probes
them by name: :meth:`Channel.resolve` (:class:`Transmission` in,
:class:`Reception` out) and ``resolve_indices_many`` (a loop over trials).
The seed per-listener loop is the test oracle ``decode_reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .._types import DecodeTriple
from ..contracts import hot_kernel
from ..geometry import Node
from ..state import DecodeWorkspace, NetworkState, TiledNetworkState
from ..state.slabs import run_slabs, slab_bounds
from .arrays import NodeArrayCache
from .parameters import SINRParameters

__all__ = [
    "Transmission",
    "Reception",
    "Channel",
    "CachedChannel",
    "ensure_positive_powers",
]


def ensure_positive_powers(powers: np.ndarray) -> None:
    """Batch-path equivalent of the ``Transmission`` power check.

    The index-array engines never build :class:`Transmission` objects, so
    they validate their power vectors through this single helper instead of
    each re-implementing ``__post_init__``'s rule: every power must be
    positive and finite.  A NaN fails ``0 < p``.  The test runs on Python
    floats: for a slot's few powers that is cheaper than two NumPy
    reductions, and for k powers it stays far below the k-row decode it
    guards.
    """
    for power in powers.tolist():
        if not 0.0 < power < math.inf:
            raise ValueError(f"transmission power must be positive and finite, got {power}")


@dataclass(frozen=True)
class Transmission:
    """A single node transmitting one message at one power level in a slot."""

    sender: Node
    power: float
    message: Any = None

    def __post_init__(self) -> None:
        if not 0 < self.power < math.inf:
            raise ValueError(
                f"transmission power must be positive and finite, got {self.power}"
            )


@dataclass(frozen=True)
class Reception:
    """A successful reception at a listener.

    Attributes:
        sender: the node whose message was decoded.
        message: the decoded message payload.
        sinr: the SINR at which it was received.
    """

    sender: Node
    message: Any
    sinr: float


@hot_kernel()
def _decode_received(
    received: np.ndarray,
    params: SINRParameters,
    workspace: DecodeWorkspace | None = None,
    decoded_only: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode from the received-signal matrix ``received[i, j]``, the signal
    of transmitter ``i`` at listener ``j``.

    Every listener decodes the transmitter with the strongest received
    signal, provided the SINR against all other signals meets
    ``params.beta``.  Returns ``(best, sinr, ok)``, one entry per listener:
    the row of its strongest transmitter, the SINR of that signal (``inf``
    without interference and noise) and whether it clears ``beta``; the
    arithmetic is elementwise that of the ``decode_reference`` test oracle.
    Callers run it under ``np.errstate(divide="ignore", invalid="ignore")``,
    once for the whole decode chain.  ``decoded_only`` (allocating path)
    picks the winner only in the columns that decode and leaves ``best`` 0
    elsewhere: ``argmax`` is column-wise, so those winners are the same.
    """
    # The strongest signal is taken with maximum.reduce: the value at the
    # argmax row, bit-identical to a fancy-index gather (a NaN column has
    # its NaN at both).
    if workspace is None:
        total = np.add.reduce(received, axis=0)
        total += params.noise
        best_signal = np.maximum.reduce(received, axis=0)
        # A colocated transmitter (dist <= 0) makes the received entry
        # infinite; the seed loop then evaluates inf - inf = nan and decodes
        # nothing, so the nan must propagate here rather than be replaced.
        interference = total - best_signal
        sinr = best_signal / interference
        sinr[interference <= 0] = np.inf
        ok = sinr >= params.beta
        if not decoded_only:
            return received.argmax(axis=0), sinr, ok
        best = np.zeros(received.shape[1], dtype=np.intp)
        decoded = ok.nonzero()[0]
        best[decoded] = received[:, decoded].argmax(axis=0)
        return best, sinr, ok

    # Zero-allocation variant: same elementwise operations, destinations
    # reused from the arena.
    n = received.shape[1]
    total = workspace.floats("decode.total", n)
    np.add.reduce(received, axis=0, out=total)
    np.add(total, params.noise, out=total)
    best = workspace.ints("decode.best", n)
    np.argmax(received, axis=0, out=best)
    best_signal = workspace.floats("decode.signal", n)
    np.maximum.reduce(received, axis=0, out=best_signal)
    interference = workspace.floats("decode.interference", n)
    sinr = workspace.floats("decode.sinr", n)
    np.subtract(total, best_signal, out=interference)
    np.divide(best_signal, interference, out=sinr)
    no_interference = workspace.bools("decode.mask", n)
    np.less_equal(interference, 0, out=no_interference)
    np.copyto(sinr, np.inf, where=no_interference)
    ok = workspace.bools("decode.ok", n)
    np.greater_equal(sinr, params.beta, out=ok)
    return best, sinr, ok


class Channel:
    """SINR channel resolving simultaneous transmissions into receptions.

    Args:
        params: the physical-model parameters.
    """

    __slots__ = ('params',)

    def __init__(self, params: SINRParameters) -> None:
        self.params = params

    def resolve(
        self,
        transmissions: Sequence[Transmission],
        listeners: Iterable[Node],
        slot: int | None = None,
    ) -> dict[int, Reception]:
        """Determine which listeners decode which transmission.

        A listener decodes the transmission with the highest SINR at its
        location, provided that SINR is at least ``beta``.  Nodes that are
        themselves transmitting never receive (half-duplex); transmitting
        nodes included in ``listeners`` are silently skipped.

        Args:
            transmissions: the transmissions taking place in this slot.  If a
                node appears as the sender of several transmissions a
                ``ValueError`` is raised - a radio sends one message per slot.
            listeners: the nodes listening in this slot.
            slot: global slot index, consumed only by a slot-dependent
                ``params.gain_model`` (e.g. Rayleigh fast fading); ``None``
                selects the model's slot-free draw.

        Returns:
            Mapping from listener node id to the :class:`Reception` it decoded.
            Listeners that decode nothing are absent from the mapping.

        An adapter over :meth:`resolve_indices`, kept as a plain method of
        this class because perfbench's tracer probes ``Channel.resolve`` by
        name; nothing in ``src/`` calls it.
        """
        listener_list = [node for node in listeners]
        if not transmissions or not listener_list:
            return {}

        sender_ids = [t.sender.id for t in transmissions]
        if len(sender_ids) != len(set(sender_ids)):
            raise ValueError("a node cannot send two transmissions in the same slot")
        transmitting_ids = set(sender_ids)
        active_listeners = [node for node in listener_list if node.id not in transmitting_ids]
        if not active_listeners:
            return {}

        cache = self._universe(transmissions, active_listeners)
        index = cache.index_of_id
        tx = np.array([index(node_id) for node_id in sender_ids], dtype=np.intp)
        rx = np.array([index(node.id) for node in active_listeners], dtype=np.intp)
        powers = np.array([t.power for t in transmissions], dtype=float)
        best, sinr, ok = self._decode_block(cache, tx, rx, powers, slot, None, False)
        results: dict[int, Reception] = {}
        for j in ok.nonzero()[0].tolist():
            t = transmissions[int(best[j])]
            results[active_listeners[j].id] = Reception(
                sender=t.sender, message=t.message, sinr=float(sinr[j])
            )
        return results

    def _universe(
        self, transmissions: Sequence[Transmission], listeners: Sequence[Node]
    ) -> NodeArrayCache:
        """A tiled store over the call's distinct nodes (first node per id)."""
        nodes = {t.sender.id: t.sender for t in transmissions}
        for node in listeners:
            nodes.setdefault(node.id, node)
        return NodeArrayCache(state=TiledNetworkState(nodes.values()))

    def _index_fade(
        self,
        cache: NodeArrayCache,
        tx: np.ndarray,
        rx: np.ndarray | None,
        slot: int | None,
        workspace: DecodeWorkspace | None = None,
    ) -> np.ndarray | None:
        """Gain-model fade block for index arrays (``rx=None`` = all nodes).

        Slot-invariant models (static shadowing) are served from the node
        cache's per-model fade matrix - hashed once, sliced per slot - while
        slot-dependent models (fast fading) are evaluated fresh.  ``None``
        means unit gain: the caller skips the multiplication.
        """
        model = self.params.effective_gain_model
        if model is None:
            return None
        if model.slot_invariant:
            # Served from the shared state's per-model fade matrix - hashed
            # once, patched under churn, gathered per slot.
            return cache.fade_block(model, tx, rx, workspace=workspace)
        rx_ids = cache.ids if rx is None else cache.ids[rx]
        return model.fade(cache.ids[tx], rx_ids, slot)

    def resolve_indices(
        self,
        tx_indices: np.ndarray,
        rx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache,
        slot: int | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
        _decoded_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index-array fast path of :meth:`resolve` against a node cache.

        Skips all node-object marshalling: transmitters and listeners are
        integer indices into ``cache`` and powers a plain float vector.

        Unlike :meth:`resolve`, the caller owns the protocol invariants: the
        transmitter indices must be distinct, the listener indices must not
        contain a transmitting node (half-duplex), and powers must be
        positive.  The slot engines that call this enforce all three by
        construction.

        Returns:
            ``(best, sinr, ok)`` aligned to ``rx_indices``; ``best`` holds
            positions into ``tx_indices`` (see ``_decode_received``).  With
            a ``workspace``, the arrays are views into it, valid until the
            next decode through the same workspace.  The simulator's
            private ``_decoded_only`` leaves ``best`` 0 where ``ok`` is
            false instead of picking a winner nobody reads.
        """
        tx = np.asarray(tx_indices, dtype=np.intp)
        rx = np.asarray(rx_indices, dtype=np.intp)
        if tx.size == 0 or rx.size == 0:
            return (
                np.zeros(rx.size, dtype=np.intp),
                np.zeros(rx.size, dtype=float),
                np.zeros(rx.size, dtype=bool),
            )
        return self._decode_block(cache, tx, rx, powers, slot, workspace, _decoded_only)

    def resolve_indices_full(
        self,
        tx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache,
        slot: int | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
        _decoded_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`resolve_indices` with the *whole universe* as listeners.

        Returns ``(best, sinr, ok)`` with one column per cache node.  Each
        column's decode depends only on the transmitter rows, so listener
        columns are elementwise identical to a :meth:`resolve_indices` call
        on any listener subset - but the full-row gather here is much
        cheaper than a two-dimensional fancy slice.  Columns belonging to
        transmitting nodes are *not* masked; the caller applies half-duplex
        by ignoring them.
        """
        tx = np.asarray(tx_indices, dtype=np.intp)
        if tx.size == 0 or len(cache) == 0:
            return (
                np.zeros(len(cache), dtype=np.intp),
                np.zeros(len(cache), dtype=float),
                np.zeros(len(cache), dtype=bool),
            )
        return self._decode_block(cache, tx, None, powers, slot, workspace, _decoded_only)

    def _decode_block(
        self,
        cache: NodeArrayCache,
        tx: np.ndarray,
        rx: np.ndarray | None,
        powers: np.ndarray,
        slot: int | None,
        workspace: DecodeWorkspace | None,
        decoded_only: bool,
    ) -> DecodeTriple:
        """Decode ``tx`` at ``powers`` on the ``rx`` columns (``None`` = all).

        The state stores ``max(d, 1e-300)**alpha`` with colocated pairs
        zeroed, so the gather-and-divide reproduces the uncached
        ``np.where(dist <= 0, inf, powers / max(dist, 1e-300)**alpha)``
        bit-for-bit without a float power per slot.
        """
        if rx is None and workspace is None:
            source = cache.attenuation_row_source(self.params.alpha, tx)
            if source is not None:
                return self._decode_rows(source, cache, tx, powers, slot, decoded_only)
        attenuation = cache.attenuation_block(self.params.alpha, tx, rx, workspace=workspace)
        fade = self._index_fade(cache, tx, rx, slot, workspace)
        # One error state for the chain: a power over a zero attenuation is
        # the colocated pair's inf, and inf - inf the NaN that decodes nothing.
        with np.errstate(divide="ignore", invalid="ignore"):
            received = self._received_from_attenuation(attenuation, powers, workspace)
            if fade is not None:
                received = self._apply_fade(received, fade)
            return _decode_received(received, self.params, workspace, decoded_only)

    @hot_kernel(allocates=True)
    def _decode_rows(
        self,
        source: tuple[np.ndarray, np.ndarray | None],
        cache: NodeArrayCache,
        tx: np.ndarray,
        powers: np.ndarray,
        slot: int | None,
        decoded_only: bool,
    ) -> DecodeTriple:
        """Whole-universe decode of ``tx`` from a tiled store's rows, in
        listener-column slabs.

        ``source`` is the store's ``(rows, positions)``
        (:meth:`NodeArrayCache.attenuation_row_source`).  Each slab of
        :func:`~repro.state.slabs.slab_bounds` gathers its ``(k, cols)``
        piece with ``rows[positions, lo:hi]`` (a fresh copy; the ring is only
        read), divides the powers into it, multiplies its fade columns and
        runs :func:`_decode_received` on it, then writes its columns of the
        result.  A listener's decode reads only its own column, so the
        result is bitwise that of the one-block decode at any slab count and
        worker count.  One slab is a direct call on the calling thread.
        """
        rows, positions = source
        n = len(cache)
        fade = self._index_fade(cache, tx, None, slot)
        received_from_attenuation, apply_fade, decode_received = _SLAB_KERNELS
        params = self.params

        def decode(lo: int, hi: int) -> DecodeTriple:
            # An uncached (over-budget) block is the decode's own: divide in place.
            piece = rows[:, lo:hi] if positions is None else rows[positions, lo:hi]
            received = received_from_attenuation(piece, powers, None)
            if fade is not None:
                received = apply_fade(received, fade[:, lo:hi])
            return decode_received(received, params, None, decoded_only)

        bounds = slab_bounds(n, 8 * tx.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            if len(bounds) == 1:
                return decode(0, n)
            best = np.empty(n, dtype=np.intp)
            sinr = np.empty(n)
            ok = np.empty(n, dtype=bool)

            def write(lo: int, hi: int) -> None:
                best[lo:hi], sinr[lo:hi], ok[lo:hi] = decode(lo, hi)

            run_slabs(write, bounds)
        return best, sinr, ok

    @staticmethod
    @hot_kernel()
    def _received_from_attenuation(
        attenuation: np.ndarray,
        powers: np.ndarray,
        workspace: DecodeWorkspace | None,
    ) -> np.ndarray:
        """``powers[:, None] / attenuation``, into the arena when one is given.

        Without a workspace the quotient is written over ``attenuation``
        itself, so the decode holds one ``(k, n)`` block, not two.  That is
        safe because every allocating ``attenuation_block`` result is a
        fresh copy the decode owns: a dense row ``take`` or ``np.ix_``
        gather, the tiled ``cache.rows[positions]`` gather, an uncached
        over-budget fill or an ``attenuation_rect_from_xy`` rectangle - never
        a view of a store's matrix or row cache.  Callers ignore the
        divide-by-zero of a colocated pair.
        """
        power_col = np.asarray(powers, dtype=float)[:, None]
        if workspace is None:
            return np.divide(power_col, attenuation, out=attenuation)
        received = workspace.floats("decode.received", *attenuation.shape)
        np.divide(power_col, attenuation, out=received)
        return received

    @staticmethod
    @hot_kernel()
    def _apply_fade(received: np.ndarray, fade: np.ndarray) -> np.ndarray:
        """``received * fade``, in place: ``received`` is the decode's own block."""
        np.multiply(received, fade, out=received)
        return received

    def resolve_indices_many(
        self,
        tx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache,
        slots: np.ndarray | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``T`` slots of :meth:`resolve_indices_full` for one transmitter set.

        ``powers`` is ``(T, ntx)`` per trial or ``(ntx,)`` shared; ``slots``
        holds the ``T`` slot indices (``None``: the slot-free draw, then
        ``powers`` sizes the stack).  Row ``t`` of each ``(T, len(cache))``
        output is the :meth:`resolve_indices_full` decode of trial ``t``.
        A plain method of this class because perfbench's tracer probes
        ``Channel.resolve_indices_many`` by name.
        """
        powers = np.asarray(powers, dtype=float)
        if slots is None and powers.ndim != 2:
            raise ValueError("pass slots or stacked (T, ntx) powers to size the trial stack")
        trials = powers.shape[0] if slots is None else len(slots)
        if powers.ndim == 2 and powers.shape[0] != trials:
            raise ValueError(f"powers stack has {powers.shape[0]} trials but slots has {trials}")
        n = len(cache)
        best = np.zeros((trials, n), dtype=np.intp)
        sinr = np.zeros((trials, n), dtype=float)
        ok = np.zeros((trials, n), dtype=bool)
        for t in range(trials):
            best[t], sinr[t], ok[t] = self.resolve_indices_full(
                tx_indices,
                powers[t] if powers.ndim == 2 else powers,
                cache,
                None if slots is None else int(slots[t]),
                workspace=workspace,
            )
        return best, sinr, ok


#: The raw kernels a :meth:`Channel._decode_rows` slab runs.  Kernel timers
#: rebind the module and class attributes to wrappers; a slab body, which
#: may run on a pool thread, calls the functions themselves, so telemetry is
#: recorded only on the calling thread (around ``_decode_rows``).
_SLAB_KERNELS = (
    Channel.__dict__["_received_from_attenuation"].__func__,
    Channel.__dict__["_apply_fade"].__func__,
    _decode_received,
)


class CachedChannel(Channel):
    """Channel over a *fixed node universe*, backed by its geometry store.

    Indices address the universe's :class:`NodeArrayCache`, whose
    :class:`~repro.state.NetworkState` serves the attenuation rectangles.
    :meth:`resolve` decodes from that store when every node of the call is
    in the universe and from a store over the call's own nodes otherwise;
    both give the same floats (the stores compute the same ``hypot``
    values).

    Args:
        params: the physical-model parameters.
        nodes: the node universe (e.g. every node a simulator steps, or every
            endpoint of a link set being scheduled); its store is chosen by
            size (:meth:`~repro.state.NetworkState.for_nodes`).
        cache: an existing :class:`NodeArrayCache` over the same universe to
            share instead of building a new one - several channels with
            different parameters (e.g. one per gain model under study) can
            then reuse one set of O(n^2) distance/attenuation matrices.
            When given, ``nodes`` is ignored.
        state: an existing :class:`~repro.state.NetworkState` to view - the
            channel's cache then shares the state's matrices with every
            other view of it, and topology changes applied to the state
            (churn splices, moves) are visible to the channel without any
            rebuild.  Mutually exclusive with ``cache``.
    """

    def __init__(
        self,
        params: SINRParameters,
        nodes: Iterable[Node] | None = None,
        cache: NodeArrayCache | None = None,
        *,
        state: NetworkState | None = None,
    ) -> None:
        super().__init__(params)
        if cache is None:
            if nodes is None and state is None:
                raise ValueError(
                    "CachedChannel needs a node universe: pass nodes, cache or state"
                )
            cache = NodeArrayCache(nodes, state=state)
        elif state is not None and cache.state is not state:
            raise ValueError("pass either cache or state, not both")
        self.cache = cache

    def _universe(
        self, transmissions: Sequence[Transmission], listeners: Sequence[Node]
    ) -> NodeArrayCache:
        """This channel's cache when it holds every node, else a tiled store."""
        nodes = [t.sender for t in transmissions] + list(listeners)
        if all(node.id in self.cache for node in nodes):
            return self.cache
        return super()._universe(transmissions, listeners)

    def decoded_senders(
        self,
        sender_ids: Sequence[int],
        powers: Sequence[float],
        listener_ids: Sequence[int],
        slot: int | None = None,
    ) -> dict[int, int]:
        """One slot in node ids: listener id -> id of the sender it decodes.

        ``sender_ids[i]`` (distinct radios) transmits at ``powers[i]``.
        Listeners that transmit are skipped (half-duplex) and a bad power
        raises ``ValueError`` (:func:`ensure_positive_powers`).  Rows and
        columns keep the given order, repeats included, so the decode is
        bit-identical to :meth:`resolve` on the same slot.
        """
        power_array = np.array(powers, dtype=float)
        ensure_positive_powers(power_array)
        sending = set(sender_ids)
        listening = [node_id for node_id in listener_ids if node_id not in sending]
        if not sender_ids or not listening:
            return {}
        index = self.cache.index_of_id
        tx = np.array([index(node_id) for node_id in sender_ids], dtype=np.intp)
        rx = np.array([index(node_id) for node_id in listening], dtype=np.intp)
        best, _, ok = self.resolve_indices(tx, rx, power_array, slot=slot, _decoded_only=True)
        winners = best.tolist()
        return {listening[j]: sender_ids[winners[j]] for j in ok.nonzero()[0].tolist()}

    def resolve_indices(
        self,
        tx_indices: np.ndarray,
        rx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache | None = None,
        slot: int | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
        _decoded_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index-array fast path; indices address this channel's own cache."""
        return super().resolve_indices(
            tx_indices,
            rx_indices,
            powers,
            self.cache if cache is None else cache,
            slot,
            workspace=workspace,
            _decoded_only=_decoded_only,
        )

    def resolve_indices_full(
        self,
        tx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache | None = None,
        slot: int | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
        _decoded_only: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole-universe fast path; indices address this channel's own cache."""
        return super().resolve_indices_full(
            tx_indices,
            powers,
            self.cache if cache is None else cache,
            slot,
            workspace=workspace,
            _decoded_only=_decoded_only,
        )

    def resolve_indices_many(
        self,
        tx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache | None = None,
        slots: np.ndarray | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-trial loop; indices address this channel's own cache.

        A plain method of this class because perfbench's tracer probes
        ``CachedChannel.resolve_indices_many`` by name.
        """
        return super().resolve_indices_many(
            tx_indices,
            powers,
            self.cache if cache is None else cache,
            slots,
            workspace=workspace,
        )
