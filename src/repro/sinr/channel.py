"""The shared wireless channel.

The channel is the *only* means of communication in the paper's model: in
each slot some nodes transmit (each with a chosen power and message) and every
non-transmitting node receives the message of the strongest sender whose SINR
at that node meets the threshold ``beta`` - or nothing.

The :class:`Channel` is stateless with respect to time; the distributed
simulator (``repro.runtime``) calls :meth:`Channel.resolve` once per slot and
is responsible for slot accounting.

Decoding is fully vectorized: one argmax/SINR/threshold pass over the
transmitter-to-listener matrix resolves every listener at once
(:func:`decode_arrays`), and :class:`Reception` objects are constructed only
for the listeners that actually decode something.  The slot-loop hot path can
skip node-object marshalling entirely via :meth:`Channel.resolve_indices`,
which works on integer indices into a :class:`~repro.sinr.arrays.NodeArrayCache`.
The seed per-listener loop lives on in the test suite as the
``decode_reference`` oracle, so parity tests (and benchmarks) can pin the
vectorized pass against it bit-for-bit.

Two further gears sit on top of the vectorized pass (PR 5):

* every decode entry point accepts a ``workspace``
  (:class:`~repro.state.DecodeWorkspace`): the kernels then write into the
  arena's preallocated buffers via ``out=``/in-place ufuncs instead of
  allocating temporaries per slot.  Outputs are bit-for-bit identical to
  the allocating path and valid until the next decode into the same
  workspace;
* :func:`decode_many` evaluates ``T`` same-shape trials (Monte-Carlo fade
  draws, per-slot power sweeps) as one ``(T, n, n)`` tensor pass, so batch
  workloads amortize kernel dispatch across trials.  Each trial's decode is
  bit-identical to a separate :func:`decode_arrays` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .._types import DecodeTriple, FloatArray
from ..contracts import hot_kernel
from ..geometry import Node
from ..state import DecodeWorkspace, NetworkState
from .arrays import NodeArrayCache
from .parameters import SINRParameters

__all__ = [
    "Transmission",
    "Reception",
    "Channel",
    "CachedChannel",
    "decode_arrays",
    "decode_many",
    "ensure_positive_powers",
]


def ensure_positive_powers(powers: np.ndarray) -> None:
    """Batch-path equivalent of the ``Transmission`` power check.

    The index-array engines never build :class:`Transmission` objects, so
    they validate their power vectors through this single helper instead of
    each re-implementing ``__post_init__``'s rule.
    """
    if np.any(powers <= 0):
        bad = powers[powers <= 0][0]
        raise ValueError(f"transmission power must be positive, got {bad}")


@dataclass(frozen=True)
class Transmission:
    """A single node transmitting one message at one power level in a slot."""

    sender: Node
    power: float
    message: Any = None

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValueError(f"transmission power must be positive, got {self.power}")


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


@hot_kernel(oracle="decode_reference")
def decode_arrays(
    dist: np.ndarray,
    powers: np.ndarray,
    params: SINRParameters,
    *,
    fade: FloatArray | None = None,
    workspace: DecodeWorkspace | None = None,
) -> DecodeTriple:
    """Vectorized SINR decode over a transmitter-to-listener distance matrix.

    ``dist[i, j]`` is the distance from transmitter ``i`` to listener ``j``
    and ``powers[i]`` the power of transmitter ``i``.  Every listener decodes
    the transmitter with the strongest received signal at its location,
    provided the SINR against all other signals meets ``params.beta``.

    Args:
        dist: transmitter-to-listener distance matrix.
        powers: per-transmitter power vector.
        params: physical-model parameters.
        fade: optional multiplicative fade-factor matrix (same shape as
            ``dist``) from a :class:`~repro.dynamics.gain.GainModel`; ``None``
            leaves the deterministic path loss untouched - the code path is
            then byte-identical to the seed kernel.
        workspace: optional scratch arena; the kernel then runs on
            preallocated buffers (zero per-call temporaries) and the
            returned arrays are views into it, valid until the next decode
            using the same workspace.

    Returns:
        ``(best, sinr, ok)``, each of length ``dist.shape[1]``: per listener,
        the row index of its strongest transmitter, the SINR of that signal
        (``inf`` when there is no interference and no noise), and whether the
        SINR clears ``beta``.  The arithmetic is elementwise identical to the
        seed per-listener loop (the ``decode_reference`` test oracle);
        parity tests pin this bit-for-bit.
    """
    if workspace is None:
        with np.errstate(divide="ignore"):
            received = powers[:, None] / np.maximum(dist, 1e-300) ** params.alpha
        received = np.where(dist <= 0, np.inf, received)
        if fade is not None:
            received = received * fade
        return _decode_received(received, params)

    received = workspace.floats("decode.received", *dist.shape)
    np.maximum(dist, 1e-300, out=received)
    np.power(received, params.alpha, out=received)
    with np.errstate(divide="ignore"):
        np.divide(powers[:, None], received, out=received)
    colocated = workspace.bools("decode.colocated", *dist.shape)
    np.less_equal(dist, 0, out=colocated)
    np.copyto(received, np.inf, where=colocated)
    if fade is not None:
        np.multiply(received, fade, out=received)
    return _decode_received(received, params, workspace)


@hot_kernel()
def _decode_received(
    received: np.ndarray,
    params: SINRParameters,
    workspace: DecodeWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode from the received-signal matrix (see :func:`decode_arrays`)."""
    if workspace is None:
        total = received.sum(axis=0) + params.noise
        best = received.argmax(axis=0)
        best_signal = received[best, np.arange(received.shape[1])]
        # A colocated transmitter (dist <= 0) makes the received entry
        # infinite; the seed loop then evaluates inf - inf = nan and decodes
        # nothing, so the nan must propagate here rather than be replaced.
        with np.errstate(divide="ignore", invalid="ignore"):
            interference = total - best_signal
            ratio = best_signal / interference
        sinr = np.where(interference <= 0, np.inf, ratio)
        ok = sinr >= params.beta
        return best, sinr, ok

    # Zero-allocation variant: same elementwise operations, destinations
    # reused from the arena.  The strongest signal is gathered with
    # maximum.reduce - the value at the argmax row, bit-identical to the
    # allocating path's fancy-index gather.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(total, best_signal, out=interference)
        np.divide(best_signal, interference, out=sinr)
    no_interference = workspace.bools("decode.mask", n)
    np.less_equal(interference, 0, out=no_interference)
    np.copyto(sinr, np.inf, where=no_interference)
    ok = workspace.bools("decode.ok", n)
    np.greater_equal(sinr, params.beta, out=ok)
    return best, sinr, ok


def _stacked_trials(dist: np.ndarray, powers: np.ndarray, fade: np.ndarray | None) -> int:
    """Trial count of a :func:`decode_many` input set (ValueError if unstacked)."""
    counts = set()
    if dist.ndim == 3:
        counts.add(dist.shape[0])
    if powers.ndim == 2:
        counts.add(powers.shape[0])
    if fade is not None and fade.ndim == 3:
        counts.add(fade.shape[0])
    if not counts:
        raise ValueError("no input carries a trial dimension; use decode_arrays")
    if len(counts) > 1:
        raise ValueError(f"inconsistent trial counts among the stacked inputs: {sorted(counts)}")
    return counts.pop()


@hot_kernel(oracle="decode_arrays")
def decode_many(
    dist: np.ndarray,
    powers: np.ndarray,
    params: SINRParameters,
    *,
    fade: FloatArray | None = None,
    workspace: DecodeWorkspace | None = None,
) -> DecodeTriple:
    """Trial-stacked :func:`decode_arrays`: ``T`` same-shape trials, one pass.

    Monte-Carlo sweeps evaluate the same geometry under ``T`` varying
    conditions - per-trial fade draws, per-slot power vectors.  Calling
    :func:`decode_arrays` per trial pays the kernel-dispatch overhead ``T``
    times; this stacks the trials into one ``(T, ntx, nrx)`` tensor pass.
    Inputs without a leading trial dimension are broadcast across trials:

    Args:
        dist: ``(ntx, nrx)`` shared geometry or ``(T, ntx, nrx)`` per trial.
        powers: ``(ntx,)`` shared powers or ``(T, ntx)`` per trial.
        params: physical-model parameters.
        fade: ``None``, a shared ``(ntx, nrx)`` fade matrix (slot-invariant
            models) or a ``(T, ntx, nrx)`` per-trial fade tensor.
        workspace: optional scratch arena (reused tensors across calls).

    Returns:
        ``(best, sinr, ok)``, each of shape ``(T, nrx)``.  Every trial row
        is bit-for-bit identical to a separate ``decode_arrays`` call on
        that trial's inputs (the reductions run per trial slice with the
        same memory layout; parity tests pin this).
    """
    dist = np.asarray(dist, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if fade is not None:
        fade = np.asarray(fade, dtype=float)
    trials = _stacked_trials(dist, powers, fade)
    ntx, nrx = dist.shape[-2:]
    ws = DecodeWorkspace() if workspace is None else workspace

    # The path-loss denominator is evaluated in the inputs' natural shape
    # (once when the geometry is shared across trials), then broadcast.
    att = ws.floats("many.att", *dist.shape)
    np.maximum(dist, 1e-300, out=att)
    np.power(att, params.alpha, out=att)
    received = ws.floats("many.received", trials, ntx, nrx)
    power_cube = powers[:, :, None] if powers.ndim == 2 else powers[None, :, None]
    with np.errstate(divide="ignore"):
        np.divide(power_cube, att if att.ndim == 3 else att[None], out=received)
    colocated = ws.bools("many.colocated", *dist.shape)
    np.less_equal(dist, 0, out=colocated)
    np.copyto(received, np.inf, where=colocated if colocated.ndim == 3 else colocated[None])
    if fade is not None:
        np.multiply(received, fade if fade.ndim == 3 else fade[None], out=received)
    return _decode_received_stack(received, params, ws)


@hot_kernel()
def _decode_received_stack(
    received: np.ndarray, params: SINRParameters, ws: DecodeWorkspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial decode of a ``(T, ntx, nrx)`` received tensor.

    The single implementation of the stacked reduction tail
    (:func:`decode_many` and :meth:`Channel.resolve_indices_many` both end
    here).  The operation sequence mirrors :func:`_decode_received` exactly,
    with the reductions over axis 1 - each trial slice reduces in the same
    memory layout as the 2D kernel, which is what makes every trial row
    bit-identical to a per-slot decode; do not reorder.
    """
    trials, _, nrx = received.shape
    total = ws.floats("many.total", trials, nrx)
    np.add.reduce(received, axis=1, out=total)
    np.add(total, params.noise, out=total)
    best = ws.ints("many.best", trials, nrx)
    np.argmax(received, axis=1, out=best)
    best_signal = ws.floats("many.signal", trials, nrx)
    np.maximum.reduce(received, axis=1, out=best_signal)
    interference = ws.floats("many.interference", trials, nrx)
    sinr = ws.floats("many.sinr", trials, nrx)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(total, best_signal, out=interference)
        np.divide(best_signal, interference, out=sinr)
    no_interference = ws.bools("many.mask", trials, nrx)
    np.less_equal(interference, 0, out=no_interference)
    np.copyto(sinr, np.inf, where=no_interference)
    ok = ws.bools("many.ok", trials, nrx)
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

        dist = self._distances(transmissions, active_listeners)
        powers = np.array([t.power for t in transmissions], dtype=float)
        model = self.params.effective_gain_model
        if model is None:
            return self._decode(transmissions, active_listeners, dist, powers)
        fade = model.fade(
            np.array(sender_ids, dtype=np.int64),
            np.array([n.id for n in active_listeners], dtype=np.int64),
            slot,
        )
        return self._decode(transmissions, active_listeners, dist, powers, fade=fade)

    def _distances(
        self, transmissions: Sequence[Transmission], active_listeners: Sequence[Node]
    ) -> np.ndarray:
        """Transmitter-to-listener distance matrix (overridden by caches)."""
        tx_xy = np.array([[t.sender.x, t.sender.y] for t in transmissions], dtype=float)
        rx_xy = np.array([[n.x, n.y] for n in active_listeners], dtype=float)
        diff = tx_xy[:, None, :] - rx_xy[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1])

    def _decode(
        self,
        transmissions: Sequence[Transmission],
        active_listeners: Sequence[Node],
        dist: np.ndarray,
        powers: np.ndarray,
        fade: np.ndarray | None = None,
    ) -> dict[int, Reception]:
        """Resolve receptions from a transmitter-to-listener distance matrix."""
        best, sinr, ok = decode_arrays(dist, powers, self.params, fade=fade)
        results: dict[int, Reception] = {}
        for j in np.nonzero(ok)[0]:
            t = transmissions[int(best[j])]
            results[active_listeners[j].id] = Reception(
                sender=t.sender, message=t.message, sinr=float(sinr[j])
            )
        return results

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
            positions into ``tx_indices`` (see :func:`decode_arrays`).  With
            a ``workspace``, the arrays are views into it, valid until the
            next decode through the same workspace.
        """
        tx = np.asarray(tx_indices, dtype=np.intp)
        rx = np.asarray(rx_indices, dtype=np.intp)
        if tx.size == 0 or rx.size == 0:
            return (
                np.zeros(rx.size, dtype=np.intp),
                np.zeros(rx.size, dtype=float),
                np.zeros(rx.size, dtype=bool),
            )
        # The state stores max(d, 1e-300)**alpha with colocated pairs zeroed,
        # so the gather-and-divide below reproduces the uncached
        # `np.where(dist <= 0, inf, powers / max(dist, 1e-300)**alpha)`
        # bit-for-bit without a float power per slot.
        attenuation = cache.attenuation_block(
            self.params.alpha, tx, rx, workspace=workspace
        )
        received = self._received_from_attenuation(
            attenuation, powers, workspace, tx.size, rx.size
        )
        fade = self._index_fade(cache, tx, rx, slot, workspace)
        if fade is not None:
            received = self._apply_fade(received, fade, workspace)
        return _decode_received(received, self.params, workspace)

    def resolve_indices_full(
        self,
        tx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache,
        slot: int | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
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
        attenuation = cache.attenuation_block(self.params.alpha, tx, workspace=workspace)
        received = self._received_from_attenuation(
            attenuation, powers, workspace, tx.size, len(cache)
        )
        fade = self._index_fade(cache, tx, None, slot, workspace)
        if fade is not None:
            received = self._apply_fade(received, fade, workspace)
        return _decode_received(received, self.params, workspace)

    @staticmethod
    @hot_kernel()
    def _received_from_attenuation(
        attenuation: np.ndarray,
        powers: np.ndarray,
        workspace: DecodeWorkspace | None,
        ntx: int,
        nrx: int,
    ) -> np.ndarray:
        """``powers[:, None] / attenuation``, into the arena when one is given."""
        power_col = np.asarray(powers, dtype=float)[:, None]
        if workspace is None:
            with np.errstate(divide="ignore"):
                return power_col / attenuation
        received = workspace.floats("decode.received", ntx, nrx)
        with np.errstate(divide="ignore"):
            np.divide(power_col, attenuation, out=received)
        return received

    @staticmethod
    @hot_kernel()
    def _apply_fade(
        received: np.ndarray, fade: np.ndarray, workspace: DecodeWorkspace | None
    ) -> np.ndarray:
        if workspace is None:
            return received * fade
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
        """Trial-stacked :meth:`resolve_indices_full`: ``T`` slots in one pass.

        Evaluates the *same transmitter set* under ``T`` per-trial power
        vectors (and, for slot-dependent gain models, ``T`` fade draws) with
        one attenuation gather and one tensor decode - the per-trial rows
        are bit-identical to ``T`` separate :meth:`resolve_indices_full`
        calls (parity tests pin this).

        Args:
            tx_indices: transmitter indices into ``cache`` (shared by all
                trials).
            powers: ``(T, ntx)`` per-trial powers, or ``(ntx,)`` shared.
            cache: the node universe.
            slots: length-``T`` global slot indices, consumed by
                slot-dependent gain models; ``None`` uses the slot-free
                draw for every trial.
            workspace: optional scratch arena.

        Returns:
            ``(best, sinr, ok)``, each of shape ``(T, len(cache))``.
        """
        tx = np.asarray(tx_indices, dtype=np.intp)
        powers = np.asarray(powers, dtype=float)
        if slots is not None:
            slots = np.asarray(slots, dtype=np.int64)
            trials = slots.shape[0]
        elif powers.ndim == 2:
            trials = powers.shape[0]
        else:
            raise ValueError("pass slots or stacked (T, ntx) powers to size the trial stack")
        n = len(cache)
        if tx.size == 0 or n == 0:
            return (
                np.zeros((trials, n), dtype=np.intp),
                np.zeros((trials, n), dtype=float),
                np.zeros((trials, n), dtype=bool),
            )
        if powers.ndim == 2 and powers.shape[0] != trials:
            raise ValueError(
                f"powers stack has {powers.shape[0]} trials but slots has {trials}"
            )
        attenuation = cache.attenuation_block(self.params.alpha, tx, workspace=workspace)
        ws = DecodeWorkspace() if workspace is None else workspace
        received = ws.floats("many.received", trials, tx.size, n)
        power_cube = powers[:, :, None] if powers.ndim == 2 else powers[None, :, None]
        with np.errstate(divide="ignore"):
            np.divide(power_cube, attenuation[None], out=received)

        model = self.params.effective_gain_model
        if model is not None:
            if model.slot_invariant:
                fade = cache.fade_block(model, tx, workspace=workspace)
                if fade is not None:
                    np.multiply(received, fade[None], out=received)
            else:
                fade = model.fade_stack(
                    cache.ids[tx],
                    cache.ids,
                    np.zeros(trials, dtype=np.int64) if slots is None else slots,
                )
                if fade is not None:
                    np.multiply(received, fade, out=received)

        return _decode_received_stack(received, self.params, ws)

    def link_succeeds(
        self,
        sender: Node,
        receiver: Node,
        sender_power: float,
        concurrent: Mapping[int, tuple[Node, float]] | Sequence[Transmission],
        slot: int | None = None,
    ) -> bool:
        """Whether a specific sender->receiver transmission meets the threshold.

        Args:
            sender: transmitting node of the link under test.
            receiver: intended receiver.
            sender_power: power used by ``sender``.
            concurrent: the other simultaneous transmissions, either as a
                sequence of :class:`Transmission` or a mapping from node id to
                ``(node, power)``.
            slot: global slot index for slot-dependent gain models.
        """
        if isinstance(concurrent, Mapping):
            others = [(node, power) for node, power in concurrent.values()]
        else:
            others = [(t.sender, t.power) for t in concurrent]
        others = [(node, power) for node, power in others if node.id != sender.id]
        if any(node.id == receiver.id for node, _ in others):
            return False  # half-duplex: the receiver is busy transmitting
        distance = sender.distance_to(receiver)
        if distance <= 0:
            return False
        signal = sender_power / distance**self.params.alpha
        model = self.params.effective_gain_model
        if model is not None:
            signal_fade = model.fade_pairs(
                np.array([sender.id]), np.array([receiver.id]), slot
            )
            if signal_fade is not None:
                signal *= float(signal_fade[0])
        if others:
            powers = np.array([power for _, power in others], dtype=float)
            dist = self._distances_to_node(receiver, [node for node, _ in others])
            received = powers / np.maximum(dist, 1e-300) ** self.params.alpha
            if model is not None:
                cross_fade = model.fade_pairs(
                    np.array([node.id for node, _ in others], dtype=np.int64),
                    np.full(len(others), receiver.id, dtype=np.int64),
                    slot,
                )
                if cross_fade is not None:
                    received = received * cross_fade
            interference = float(received.sum())
        else:
            interference = 0.0
        return signal / (self.params.noise + interference) >= self.params.beta

    def _distances_to_node(self, receiver: Node, nodes: Sequence[Node]) -> np.ndarray:
        """Distances from each of ``nodes`` to ``receiver`` (overridden by caches)."""
        xy = np.array([[n.x, n.y] for n in nodes], dtype=float)
        return np.hypot(xy[:, 0] - receiver.x, xy[:, 1] - receiver.y)


class CachedChannel(Channel):
    """Channel over a *fixed node universe*, backed by its geometry store.

    Every call to :meth:`resolve` gathers its distances from the universe's
    :class:`~repro.state.NetworkState` by transmitter/listener index instead
    of rebuilding coordinate arrays from the node objects.  Results are
    identical to :class:`Channel` (the distances are the same hypot values,
    merely precomputed).  Transmissions or listeners involving nodes outside
    the universe are resolved from their coordinates instead.

    Args:
        params: the physical-model parameters.
        nodes: the node universe (e.g. all simulator agents' nodes, or every
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

    def _distances(
        self, transmissions: Sequence[Transmission], active_listeners: Sequence[Node]
    ) -> np.ndarray:
        try:
            tx_idx = np.array(
                [self.cache.index_of_id(t.sender.id) for t in transmissions], dtype=np.intp
            )
            rx_idx = np.array(
                [self.cache.index_of_id(n.id) for n in active_listeners], dtype=np.intp
            )
        except KeyError:
            return super()._distances(transmissions, active_listeners)
        return self.cache.distance_block(tx_idx, rx_idx)

    def resolve_indices(
        self,
        tx_indices: np.ndarray,
        rx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache | None = None,
        slot: int | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index-array fast path; indices address this channel's own cache."""
        return super().resolve_indices(
            tx_indices,
            rx_indices,
            powers,
            self.cache if cache is None else cache,
            slot,
            workspace=workspace,
        )

    def resolve_indices_full(
        self,
        tx_indices: np.ndarray,
        powers: np.ndarray,
        cache: NodeArrayCache | None = None,
        slot: int | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole-universe fast path; indices address this channel's own cache."""
        return super().resolve_indices_full(
            tx_indices,
            powers,
            self.cache if cache is None else cache,
            slot,
            workspace=workspace,
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
        """Trial-stacked fast path; indices address this channel's own cache."""
        return super().resolve_indices_many(
            tx_indices,
            powers,
            self.cache if cache is None else cache,
            slots,
            workspace=workspace,
        )

    def _distances_to_node(self, receiver: Node, nodes: Sequence[Node]) -> np.ndarray:
        try:
            rx = self.cache.index_of_id(receiver.id)
            idx = np.array([self.cache.index_of_id(n.id) for n in nodes], dtype=np.intp)
        except KeyError:
            return super()._distances_to_node(receiver, nodes)
        return self.cache.distance_block(idx, np.array([rx], dtype=np.intp))[:, 0]
