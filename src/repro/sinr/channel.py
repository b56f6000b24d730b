"""The shared wireless channel.

The channel is the *only* means of communication in the paper's model: in
each slot some nodes transmit (each with a chosen power and message) and every
non-transmitting node receives the message of the strongest sender whose SINR
at that node meets the threshold ``beta`` - or nothing.  The channel has no
notion of time; its callers count slots and pass each slot's index on for
slot-dependent fading.

There is one decode body, on integer indices into a
:class:`~repro.sinr.arrays.NodeArrayCache`: :meth:`Channel.resolve_indices`
and :meth:`Channel.resolve_indices_full` (and their :class:`CachedChannel`
forms, which perfbench's tracer probes by name) call
``Channel._decode_block``, which gathers the transmitters' attenuation rows,
divides the powers in and runs ``_decode_received``, one argmax/SINR/threshold
pass over the transmitter-to-listener block, under one ``np.errstate``.  The
whole-universe decode of a contiguous view takes its rows from the store: a
row ``take`` of the dense matrix, or the tiled store's row cache in
listener-column slabs across the slab workers (``repro.state.slabs``), bitwise
the same at any worker count.  Rectangles and decodes into a ``workspace``
(:class:`~repro.state.DecodeWorkspace`, preallocated buffers, bit-identical)
are gathered by the cache's ``attenuation_block``.  The slot engines' private
``_decoded_only`` takes winners only for the columns that decode.  The caller
owns the protocol invariants (distinct senders, no transmitting listener,
positive powers); :meth:`CachedChannel.decoded_senders` keeps them for callers
in node ids.

Two adapters over the body remain only because perfbench's tracer probes
them by name: :meth:`Channel.resolve` (:class:`Transmission` in,
:class:`Reception` out) and ``resolve_indices_many`` (a loop over trials).
The seed per-listener loop is the test oracle ``decode_reference``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, cast

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
    once per decode.  ``decoded_only`` (allocating path only) returns the
    winners of the decoding columns alone, ``best[m]`` for column
    ``ok.nonzero()[0][m]``: each is the first maximum of its column, as
    ``argmax`` picks it, read from the gathered rows of ``received.T``.
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
        if params.noise <= 0:
            # Zero interference means SINR inf, even beside no signal (0/0).
            # With noise it is 0 only beside a positive signal, whose
            # quotient is inf already: the mask would change nothing.
            sinr[interference <= 0] = np.inf
        ok = sinr >= params.beta
        if not decoded_only:
            return received.argmax(axis=0), sinr, ok
        decoded = ok.nonzero()[0]
        if received.shape[0] == 1:
            return np.zeros(decoded.size, dtype=np.intp), sinr, ok
        return received.T[decoded].argmax(axis=1), sinr, ok

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
            private ``_decoded_only`` returns ``best`` for the decoding
            listeners alone, in order, instead of picking a winner nobody
            reads; it takes no workspace.
        """
        return self._decode_block(
            cache, tx_indices, rx_indices, powers, slot, workspace, _decoded_only
        )

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
        transmitting nodes are *not* masked: a transmitter's own column
        holds its infinite signal, so its SINR is NaN and it never decodes.
        """
        return self._decode_block(cache, tx_indices, None, powers, slot, workspace, _decoded_only)

    @hot_kernel(allocates=True)
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

        The one body behind every index decode.  It gathers the
        transmitters' attenuation rows, divides the powers into them,
        multiplies the gain model's fades in and runs
        :func:`_decode_received`.  The state stores ``max(d, 1e-300)**alpha``
        with colocated pairs zeroed, so the gather-and-divide reproduces the
        uncached ``np.where(dist <= 0, inf, powers / max(dist, 1e-300)**alpha)``
        bit-for-bit without a float power per slot.

        The whole-universe decode of a contiguous view (the slot engines'
        shape) gathers its rows straight from the store: a row ``take`` of
        the dense matrix, or the tiled store's row cache
        (:meth:`~repro.state.TiledNetworkState.row_source`) in
        listener-column slabs of :func:`~repro.state.slabs.slab_bounds`
        across the slab workers.  A listener's decode reads only its own
        column, so the slab result is bitwise that of one block at any slab
        and worker count.  Rectangles and arena decodes are gathered by
        :meth:`NodeArrayCache.attenuation_block`.  Every gathered block is a
        fresh copy the decode owns (never a view of a store's matrix or
        ring), so the quotient is written over it.
        """
        tx = np.asarray(tx, dtype=np.intp)
        if rx is not None:
            rx = np.asarray(rx, dtype=np.intp)
        n = len(cache) if rx is None else rx.size
        if not tx.size or not n:
            return (
                np.zeros(0 if decoded_only else n, dtype=np.intp),
                np.zeros(n, dtype=float),
                np.zeros(n, dtype=bool),
            )
        params = self.params
        fade = None
        model = params.effective_gain_model
        if model is not None:
            if model.slot_invariant:
                # Served from the state's per-model fades: hashed once,
                # patched under churn, gathered per slot.
                fade = cache.fade_block(model, tx, rx, workspace=workspace)
            else:
                fade = model.fade(cache.ids[tx], cache.ids if rx is None else cache.ids[rx], slot)
        power_col = np.asarray(powers, dtype=float)[:, None]
        state = cache.state
        whole_rows = rx is None and workspace is None and cache.contiguous
        # One error state per decode: a power over a zero attenuation is the
        # colocated pair's inf, and inf - inf the NaN that decodes nothing.
        with np.errstate(divide="ignore", invalid="ignore"):
            if whole_rows and not state.materializes_matrices:
                rows, positions = cast(TiledNetworkState, state).row_source(params.alpha, tx)
                (decode_received,) = _SLAB_KERNELS

                def decode(lo: int, hi: int) -> DecodeTriple:
                    # The ring is only read: the gather is a fresh copy.  An
                    # uncached (over-budget) block is the decode's own.
                    piece = rows[:, lo:hi] if positions is None else rows[positions, lo:hi]
                    np.divide(power_col, piece, out=piece)
                    if fade is not None:
                        np.multiply(piece, fade[:, lo:hi], out=piece)
                    return decode_received(piece, params, None, decoded_only)

                bounds = slab_bounds(n, 8 * tx.size)
                if len(bounds) == 1:
                    return decode(0, n)
                parts: dict[int, DecodeTriple] = {}

                def write(lo: int, hi: int) -> None:
                    parts[lo] = decode(lo, hi)

                run_slabs(write, bounds)
                slabs = [parts[lo] for lo, _ in bounds]
                best, sinr, ok = (np.concatenate(column) for column in zip(*slabs))
                return best, sinr, ok
            if whole_rows:
                received = state.attenuation_matrix(params.alpha).take(tx, axis=0)[:, :n]
                np.divide(power_col, received, out=received)
            else:
                attenuation = cache.attenuation_block(params.alpha, tx, rx, workspace=workspace)
                if workspace is None:
                    received = np.divide(power_col, attenuation, out=attenuation)
                else:
                    received = workspace.floats("decode.received", *attenuation.shape)
                    np.divide(power_col, attenuation, out=received)
            if fade is not None:
                np.multiply(received, fade, out=received)
            return _decode_received(received, params, workspace, decoded_only)

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


#: The raw decode kernel a :meth:`Channel._decode_block` slab runs.  Kernel
#: timers rebind the module attribute to a wrapper; a slab body, which may run
#: on a pool thread, calls the function itself (held in a tuple, which the
#: timers leave alone), so telemetry is recorded only on the calling thread,
#: around ``_decode_block``.
_SLAB_KERNELS = (_decode_received,)


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
        return {
            listening[j]: sender_ids[w] for j, w in zip(ok.nonzero()[0].tolist(), best.tolist())
        }

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
        cache = self.cache if cache is None else cache
        return self._decode_block(
            cache, tx_indices, rx_indices, powers, slot, workspace, _decoded_only
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
        cache = self.cache if cache is None else cache
        return self._decode_block(cache, tx_indices, None, powers, slot, workspace, _decoded_only)

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
