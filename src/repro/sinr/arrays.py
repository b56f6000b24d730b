"""Cached struct-of-arrays views of link and node collections.

Every vectorized routine in the SINR substrate used to start by rebuilding
the same coordinate arrays from Python ``Link`` objects
(``np.array([[l.sender.x, l.sender.y] for l in links])`` and friends).  For
the hot paths of the paper's algorithms - the greedy capacity loop, first-fit
scheduling, ``Distr-Cap`` phases and the slotted channel simulation - those
rebuilds, not the numpy arithmetic, dominate the running time.

This module provides the shared engine behind all of them.  Since the
network-state refactor the caches are *views* over one
:class:`~repro.state.NetworkState` - the capacity-managed store that owns
the position/distance/attenuation/fade matrices - rather than three private
matrix copies:

* :class:`LinkArrayCache` - a struct-of-arrays view of a fixed link universe
  (sender/receiver coordinates, sender ids, lengths) computed **once**, with
  lazily cached derived structures: the sender-to-receiver distance matrix,
  per-assignment power vectors, link costs, pairwise affectance matrices, raw
  SINR vectors and the power-control gain matrix.  Any subset of the universe
  is served by integer-index slicing of the cached full-size structures.
  Each link maps to a (sender slot, receiver slot) pair of its backing
  state, so several link caches can share one node-distance store.
* :class:`NodeArrayCache` - the dense view of a node universe, used by the
  cached SINR channel (``repro.sinr.channel.CachedChannel``).  It holds an
  array of live state slots; membership changes (churn) are an O(n) re-slot
  of the view while the state patches only the damaged rows - never an
  O(n^2) rebuild per event.
* :class:`AffectanceAccumulator` - an incremental row accumulator over a
  pairwise matrix, turning the "recompute the full O(m^2) affectance matrix
  after every accepted link" pattern of the greedy loops into O(m) updates
  per accepted link and O(|set|) membership tests.

The array kernels here are the *single* implementation of the corresponding
formulas; ``repro.sinr.affectance``, ``repro.sinr.feasibility`` and
``repro.core.power_solver`` delegate to them, so cached and uncached entry
points agree bit-for-bit.

Cached arrays are returned read-only (``writeable=False``); the public
seed-era wrappers hand out fresh copies.  The cache assumes the link universe
and any :class:`~repro.sinr.power.PowerAssignment` given to it are not
mutated afterwards; call :meth:`LinkArrayCache.invalidate` after mutating an
``ExplicitPower`` in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .._types import BoolArray, FloatArray
from ..contracts import hot_kernel
from ..geometry import Node
from ..links import Link
from ..state import (
    DecodeWorkspace,
    NetworkState,
    attenuation_from_distances,
    pairwise_distances,
)
from ..state.network import _freeze
from .parameters import SINRParameters
from .power import PowerAssignment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dynamics uses sinr)
    from ..dynamics.gain import GainModel

__all__ = [
    "LinkArrayCache",
    "NodeArrayCache",
    "AffectanceAccumulator",
    "affectance_matrix_from_arrays",
    "sinr_values_from_arrays",
]


@hot_kernel()
def _affectance_kernel(
    dist: np.ndarray,
    zero_mask: np.ndarray,
    col_lengths: np.ndarray,
    row_powers: np.ndarray,
    col_powers: np.ndarray,
    params: SINRParameters,
    cross_fade: np.ndarray | None = None,
    signal_fade: np.ndarray | None = None,
    workspace: DecodeWorkspace | None = None,
) -> np.ndarray:
    """Affectance of row senders on column links, from precomputed arrays.

    ``dist[i, j]`` is the distance from row link ``i``'s sender to column
    link ``j``'s receiver; ``zero_mask`` marks pairs whose affectance is
    zero by definition (same sender node, or the link itself).  This is the
    exact arithmetic of the seed ``affectance_matrix`` and must stay
    elementwise identical to it (the parity tests pin this down).

    ``cross_fade[i, j]`` optionally scales the power row sender ``i`` lands
    on column receiver ``j`` and ``signal_fade[j]`` the power column link
    ``j``'s own signal arrives with (gain-model fading); when both are
    ``None`` - the deterministic model - the original expressions run
    unmodified.

    With a ``workspace`` (deterministic model only; fading inputs fall back
    to the allocating path) the same operations run ``out=``-based on arena
    buffers: the returned matrix is a view valid until the next kernel call
    through the same workspace, and bit-for-bit equal to the allocating
    result.
    """
    cap = 1.0 + params.epsilon
    if workspace is None or cross_fade is not None or signal_fade is not None:
        if params.noise == 0:
            costs = np.full(col_lengths.shape, params.beta)
        else:
            received_col = col_powers if signal_fade is None else col_powers * signal_fade
            margins = 1.0 - params.beta * params.noise * col_lengths**params.alpha / received_col
            costs = np.where(margins > 0, params.beta / np.maximum(margins, 1e-300), np.inf)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if cross_fade is None and signal_fade is None:
                power_ratio = row_powers[:, None] / col_powers[None, :]
            else:
                landed = row_powers[:, None] if cross_fade is None else row_powers[:, None] * cross_fade
                wanted = col_powers if signal_fade is None else col_powers * signal_fade
                power_ratio = landed / wanted[None, :]
            raw = (
                costs[None, :]
                * power_ratio
                * (col_lengths[None, :] / np.maximum(dist, 1e-300)) ** params.alpha
            )
        raw = np.where(dist <= 0, np.inf, raw)
        return np.where(zero_mask, 0.0, np.minimum(cap, raw))

    ws = workspace
    rows, cols = dist.shape
    costs = ws.floats("aff.costs", cols)
    if params.noise == 0:
        costs.fill(params.beta)
    else:
        np.power(col_lengths, params.alpha, out=costs)
        np.multiply(costs, params.beta * params.noise, out=costs)
        np.divide(costs, col_powers, out=costs)
        np.subtract(1.0, costs, out=costs)  # = margins
        positive = ws.bools("aff.positive", cols)
        np.greater(costs, 0, out=positive)
        np.maximum(costs, 1e-300, out=costs)
        np.divide(params.beta, costs, out=costs)
        np.logical_not(positive, out=positive)
        np.copyto(costs, np.inf, where=positive)

    ratio = ws.floats("aff.ratio", rows, cols)
    raw = ws.floats("aff.raw", rows, cols)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(row_powers[:, None], col_powers[None, :], out=ratio)
        np.maximum(dist, 1e-300, out=raw)
        np.divide(col_lengths[None, :], raw, out=raw)
        np.power(raw, params.alpha, out=raw)
        np.multiply(costs[None, :], ratio, out=ratio)
        np.multiply(ratio, raw, out=raw)
    colocated = ws.bools("aff.colocated", rows, cols)
    np.less_equal(dist, 0, out=colocated)
    np.copyto(raw, np.inf, where=colocated)
    np.minimum(raw, cap, out=raw)
    np.copyto(raw, 0.0, where=zero_mask)
    return raw


@hot_kernel(oracle="_seed_affectance_matrix", allocates=True)
def affectance_matrix_from_arrays(
    dist: FloatArray,
    same_sender: BoolArray,
    lengths: FloatArray,
    powers: FloatArray,
    params: SINRParameters,
    cross_fade: FloatArray | None = None,
    signal_fade: FloatArray | None = None,
) -> FloatArray:
    """Pairwise affectance matrix from precomputed arrays.

    ``dist[i, j]`` is the distance from link ``i``'s sender to link ``j``'s
    receiver and ``same_sender[i, j]`` marks pairs sharing a sender node.
    ``cross_fade``/``signal_fade`` are the optional gain-model fade factors
    (see :func:`_affectance_kernel`).
    """
    m = len(lengths)
    if m == 0:
        return np.zeros((0, 0), dtype=float)
    if np.any(powers <= 0):
        raise ValueError("all link powers must be positive")
    zero_mask = same_sender | np.eye(m, dtype=bool)
    return _affectance_kernel(
        dist, zero_mask, lengths, powers, powers, params, cross_fade, signal_fade
    )


@hot_kernel(oracle="_seed_sinr_values", allocates=True)
def sinr_values_from_arrays(
    dist: FloatArray,
    same_sender: BoolArray,
    lengths: FloatArray,
    powers: FloatArray,
    params: SINRParameters,
    cross_fade: FloatArray | None = None,
    signal_fade: FloatArray | None = None,
) -> FloatArray:
    """Raw Eqn. (1) SINR at each link's receiver, from precomputed arrays."""
    m = len(lengths)
    if m == 0:
        return np.zeros(0, dtype=float)
    with np.errstate(divide="ignore"):
        received = powers[:, None] / np.maximum(dist, 1e-300) ** params.alpha
    if cross_fade is not None:
        received = received * cross_fade
    signal = powers / lengths**params.alpha
    if signal_fade is not None:
        signal = signal * signal_fade
    interference_matrix = np.where(same_sender, 0.0, received)
    interference = interference_matrix.sum(axis=0)
    return signal / (params.noise + interference)


class LinkArrayCache(Sequence):
    """Struct-of-arrays view of a fixed link universe.

    The cache behaves as an immutable sequence of its links (so it can be
    passed wherever a ``Sequence[Link]`` is expected) and serves every
    derived array - distances, powers, costs, affectance matrices, SINR
    vectors, gain matrices - from a lazily computed, reusable store.  Subsets
    are addressed by integer index into the universe.

    Args:
        links: the link universe, in index order.
        state: a :class:`~repro.state.NetworkState` containing every link
            endpoint, to share one node-geometry store with other caches.
            The caller guarantees the links were built from the state's
            current node positions *and* that the cache does not outlive a
            mutation of the state: coordinates and link lengths are
            snapshotted at construction, so a later ``move_nodes`` would
            make gathered distances disagree with them - build a fresh
            cache per topology version (the dynamics driver's per-epoch
            caches do exactly that).  When omitted, a private state over the
            unique endpoints is created lazily on first access of
            :attr:`state`, so standalone caches keep the seed construction
            cost.  Either way, if the state's node-distance matrix is
            materialized, the link-distance matrix is gathered from it
            instead of being recomputed - bitwise the same values, since
            both run the shared ``hypot`` kernel on the same coordinates.
    """

    def __init__(self, links: Iterable[Link], *, state: NetworkState | None = None) -> None:
        self._links: list[Link] = list(links)
        m = len(self._links)
        self._state = state
        self.sender_slots: np.ndarray | None = None
        self.receiver_slots: np.ndarray | None = None
        if state is not None:
            self._map_slots(state)
        if m == 0:
            self.sender_xy = _freeze(np.empty((0, 2), dtype=float))
            self.receiver_xy = _freeze(np.empty((0, 2), dtype=float))
        elif state is not None:
            self.sender_xy = _freeze(state.xy[self.sender_slots])
            self.receiver_xy = _freeze(state.xy[self.receiver_slots])
        else:
            self.sender_xy = _freeze(
                np.array([[l.sender.x, l.sender.y] for l in self._links], dtype=float)
            )
            self.receiver_xy = _freeze(
                np.array([[l.receiver.x, l.receiver.y] for l in self._links], dtype=float)
            )
        self.sender_ids = _freeze(
            np.array([l.sender.id for l in self._links], dtype=np.int64)
        )
        self.receiver_ids = _freeze(
            np.array([l.receiver.id for l in self._links], dtype=np.int64)
        )
        self.lengths = _freeze(np.array([l.length for l in self._links], dtype=float))
        self._index_by_endpoints: dict[tuple[int, int], int] | None = None
        self._distances: np.ndarray | None = None
        self._same_sender: np.ndarray | None = None
        self._powers: dict[int, tuple[PowerAssignment, np.ndarray]] = {}
        self._affectance: dict[tuple[int, SINRParameters], np.ndarray] = {}
        self._sinr: dict[tuple[int, SINRParameters], np.ndarray] = {}
        self._gain: dict[SINRParameters, np.ndarray] = {}

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._links)

    def __getitem__(self, index: int | slice) -> "Link | list[Link]":  # type: ignore[override]
        return self._links[index]

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    @property
    def links(self) -> tuple[Link, ...]:
        """The link universe, in index order."""
        return tuple(self._links)

    def _map_slots(self, state: NetworkState) -> None:
        """Resolve each link's endpoints to state slots (ValueError if absent)."""
        try:
            self.sender_slots = _freeze(
                np.array([state.slot_of_id(l.sender.id) for l in self._links], dtype=np.intp)
            )
            self.receiver_slots = _freeze(
                np.array([state.slot_of_id(l.receiver.id) for l in self._links], dtype=np.intp)
            )
        except KeyError as exc:
            raise ValueError(
                f"link endpoint {exc.args[0]!r} is not in the shared NetworkState"
            ) from exc

    @property
    def state(self) -> NetworkState:
        """The node-geometry store backing this cache.

        A private state over the unique link endpoints is created on first
        access when none was shared at construction, so standalone caches
        pay for the node store only if someone actually asks for it.
        """
        if self._state is None:
            self._state = NetworkState.from_links(self._links)
            self._map_slots(self._state)
        return self._state

    def index_of(self, link: Link) -> int:
        """Universe index of a link, keyed by its (sender id, receiver id)."""
        if self._index_by_endpoints is None:
            self._index_by_endpoints = {
                l.endpoint_ids: i for i, l in enumerate(self._links)
            }
        return self._index_by_endpoints[link.endpoint_ids]

    def indices_of(self, links: Iterable[Link]) -> np.ndarray:
        """Universe indices of an iterable of links, in iteration order."""
        return np.array([self.index_of(link) for link in links], dtype=np.intp)

    # -- cached structures ---------------------------------------------------

    def _fades(
        self,
        params: SINRParameters,
        rows: np.ndarray | None = None,
        cols: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Gain-model fade factors for a (row links x column links) block.

        Returns ``(cross_fade, signal_fade)``: the fade of every row sender's
        power at every column receiver, and the aligned per-link fade of each
        column link's own signal.  ``None`` indices mean the whole universe;
        both results are ``None`` under the deterministic model, which keeps
        every kernel on its original code path.  Link-level fades use the
        slot-free draw (``slot=None``) - feasibility and scheduling are
        slotless contexts; the slotted channel applies per-slot fades itself.
        """
        model = params.effective_gain_model
        if model is None:
            return None, None
        row_tx = self.sender_ids if rows is None else self.sender_ids[rows]
        col_tx = self.sender_ids if cols is None else self.sender_ids[cols]
        col_rx = self.receiver_ids if cols is None else self.receiver_ids[cols]
        return model.fade(row_tx, col_rx), model.fade_pairs(col_tx, col_rx)

    def distance_matrix(self) -> np.ndarray:
        """``D[i, j]`` = distance from link ``i``'s sender to link ``j``'s receiver.

        The backing state's distance rectangle when one was shared
        (gathered once its node-distance matrix is materialized, so several
        caches share one O(n^2) store); otherwise computed directly from the
        endpoint coordinates.  Every path evaluates the same ``hypot``
        kernel on the same floats, so the results are bitwise identical.
        """
        if self._distances is None:
            if self._state is None:
                distances = pairwise_distances(self.sender_xy, self.receiver_xy)
            else:
                distances = self._state.distance_rect(self.sender_slots, self.receiver_slots)
            self._distances = _freeze(distances)
        return self._distances

    def same_sender_mask(self) -> np.ndarray:
        """Boolean matrix marking link pairs whose senders are the same node."""
        if self._same_sender is None:
            self._same_sender = _freeze(
                self.sender_ids[:, None] == self.sender_ids[None, :]
            )
        return self._same_sender

    def powers(self, power: PowerAssignment) -> np.ndarray:
        """Per-link power vector under ``power`` (cached per assignment)."""
        key = id(power)
        entry = self._powers.get(key)
        if entry is None or entry[0] is not power:
            entry = (power, _freeze(np.array(power.powers(self._links), dtype=float)))
            self._powers[key] = entry
        return entry[1]

    def affectance_matrix(
        self,
        power: PowerAssignment,
        params: SINRParameters,
        indices: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Pairwise affectance matrix of the universe (or an index subset).

        The full matrix is computed once per ``(power, params)`` pair; any
        subset is an ``np.ix_`` slice of it.  Returned arrays are read-only.
        """
        key = (id(power), params)
        matrix = self._affectance.get(key)
        if matrix is None:
            cross_fade, signal_fade = self._fades(params)
            matrix = _freeze(
                affectance_matrix_from_arrays(
                    self.distance_matrix(),
                    self.same_sender_mask(),
                    self.lengths,
                    self.powers(power),
                    params,
                    cross_fade,
                    signal_fade,
                )
            )
            self._affectance[key] = matrix
        if indices is None:
            return matrix
        idx = np.asarray(indices, dtype=np.intp)
        return matrix[np.ix_(idx, idx)]

    def sinr_values(
        self,
        power: PowerAssignment,
        params: SINRParameters,
        indices: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Raw SINR at each receiver with the whole universe (or subset) active.

        Unlike :meth:`affectance_matrix`, the SINR of a link depends on which
        other links are active, so subsets are recomputed from the cached
        distance slices rather than sliced from the full-universe vector.
        """
        if indices is None:
            key = (id(power), params)
            values = self._sinr.get(key)
            if values is None:
                cross_fade, signal_fade = self._fades(params)
                values = _freeze(
                    sinr_values_from_arrays(
                        self.distance_matrix(),
                        self.same_sender_mask(),
                        self.lengths,
                        self.powers(power),
                        params,
                        cross_fade,
                        signal_fade,
                    )
                )
                self._sinr[key] = values
            return values
        idx = np.asarray(indices, dtype=np.intp)
        sub = np.ix_(idx, idx)
        cross_fade, signal_fade = self._fades(params, idx, idx)
        return sinr_values_from_arrays(
            self.distance_matrix()[sub],
            self.same_sender_mask()[sub],
            self.lengths[idx],
            self.powers(power)[idx],
            params,
            cross_fade,
            signal_fade,
        )

    def gain_matrix(self, params: SINRParameters) -> np.ndarray:
        """Channel gain matrix ``G[i, j] = 1 / d(sender_j, receiver_i)**alpha``.

        This is the transpose orientation of :meth:`distance_matrix` (row =
        receiver, column = sender), matching ``repro.core.power_solver``.
        """
        gains = self._gain.get(params)
        if gains is None:
            dist = self.distance_matrix().T
            # The shared d**alpha kernel stores colocated pairs as 0.0, so
            # the reciprocal is inf there - the same values the seed's
            # np.where(dist <= 0, inf, 1 / max(dist, 1e-300)**alpha) yields.
            with np.errstate(divide="ignore"):
                gains = 1.0 / attenuation_from_distances(dist, params.alpha)
            model = params.effective_gain_model
            if model is not None:
                # fade(sender_ids, receiver_ids)[j, i] is sender j's fade at
                # receiver i; transpose into the (receiver, sender) layout.
                fade = model.fade(self.sender_ids, self.receiver_ids)
                if fade is not None:
                    gains = gains * fade.T
            gains = _freeze(gains)
            self._gain[params] = gains
        return gains

    def invalidate(self, power: PowerAssignment | None = None) -> None:
        """Drop cached powers/affectances (for ``power``, or all assignments).

        Needed only when a power assignment handed to this cache has been
        mutated in place (e.g. ``ExplicitPower.set_power``).
        """
        if power is None:
            self._powers.clear()
            self._affectance.clear()
            self._sinr.clear()
            return
        self._powers.pop(id(power), None)
        for store in (self._affectance, self._sinr):
            for key in [k for k in store if k[0] == id(power)]:
                del store[key]


class NodeArrayCache:
    """Dense view of a node universe over a shared :class:`NetworkState`.

    The view maps its dense indices ``0..n-1`` (the indexing every slot
    engine and channel uses) to live slots of the backing state, which owns
    the O(n^2) distance/attenuation/fade matrices.  Whole-universe matrices
    are served as zero-copy basic slices while the view is *contiguous*
    (slots ``0..n-1``, the static common case) and as cached gathers
    otherwise; the slot-decode hot paths use the block accessors, which ask
    the state, dense or tiled, for exactly the requested rectangle.

    Membership changes flow through :meth:`add_nodes`/:meth:`remove_ids`/
    :meth:`sync`: the state patches only the damaged rows (O(k * capacity))
    and the view re-slots itself in O(n) - sustained churn never pays an
    O(n^2) rebuild per event.

    Args:
        nodes: the node universe, in dense-index order.  When ``state`` is
            given they must already be live in it; when omitted together
            with ``state``, the view covers the state's live nodes in
            insertion order.
        state: an existing :class:`~repro.state.NetworkState` to view,
            shared with other caches/channels; when omitted, a private one
            is created from ``nodes`` by :meth:`NetworkState.for_nodes`,
            which picks the store by size.
    """

    def __init__(
        self,
        nodes: Iterable[Node] | None = None,
        *,
        state: NetworkState | None = None,
    ) -> None:
        if state is None:
            state = NetworkState.for_nodes(() if nodes is None else nodes)
            nodes = None
        self._state = state
        if nodes is None:
            slots = state.live_slots()
        else:
            try:
                slots = np.array(
                    [state.slot_of_id(node.id) for node in nodes], dtype=np.intp
                )
            except KeyError as exc:
                raise ValueError(
                    f"node {exc.args[0]!r} is not in the shared NetworkState"
                ) from exc
        self._set_slots(slots)

    def _set_slots(self, slots: np.ndarray) -> None:
        """(Re)anchor the view: dense index ``k`` maps to state slot ``slots[k]``."""
        self._slots = _freeze(np.asarray(slots, dtype=np.intp).copy())
        self.ids = _freeze(self._state.ids[self._slots].astype(np.int64))
        # Built on the first id lookup: most views are only read by index.
        self._index_by_id: dict[int, int] | None = None
        self._contiguous = bool(
            np.array_equal(self._slots, np.arange(self._slots.size, dtype=np.intp))
        )
        # View-level caches of whole-universe structures: (base-or-version,
        # matrix) entries resolved by _dense_view.
        self._xy_entry: tuple | None = None
        self._dense_entries: dict[object, tuple] = {}

    # -- membership ----------------------------------------------------------

    @property
    def state(self) -> NetworkState:
        """The geometry/gain store backing this view."""
        return self._state

    @property
    def contiguous(self) -> bool:
        """Whether dense index ``k`` is state slot ``k`` for every ``k``."""
        return self._contiguous

    @property
    def slots(self) -> np.ndarray:
        """State slot of each dense index."""
        return self._slots

    @property
    def nodes(self) -> list[Node]:
        """The node universe, in dense-index order (current positions)."""
        return [self._state.node_at(slot) for slot in self._slots.tolist()]

    def __len__(self) -> int:
        return self._slots.size

    def _id_index(self) -> dict[int, int]:
        if self._index_by_id is None:
            self._index_by_id = {node_id: k for k, node_id in enumerate(self.ids.tolist())}
        return self._index_by_id

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._id_index()

    def index_of_id(self, node_id: int) -> int:
        """Universe index of the node with the given id (KeyError if absent)."""
        return self._id_index()[node_id]

    def add_nodes(self, nodes: Iterable[Node]) -> np.ndarray:
        """Add brand-new nodes to the shared state and append them to the view.

        The state patches only the new rows/columns (O(k * capacity),
        amortized growth included); the view extends its slot map.  Returns
        the assigned state slots.
        """
        slots = self._state.add_nodes(nodes)
        if slots.size:
            self._set_slots(np.concatenate([self._slots, slots]))
        return slots

    def remove_ids(self, node_ids: Iterable[int]) -> None:
        """Remove nodes from the shared state and drop them from the view (O(n))."""
        id_list = [int(node_id) for node_id in node_ids]
        if not id_list:
            return
        self._state.remove_nodes(id_list)
        keep = ~np.isin(self.ids, np.array(id_list, dtype=np.int64))
        self._set_slots(self._slots[keep])

    def sync(self, nodes: Iterable[Node]) -> None:
        """Re-anchor the view to ``nodes`` (all must be live in the state).

        Used after a churn event applied directly to the state (e.g. by
        ``TreeRepairer.integrate``): the view adopts the given dense order -
        typically the repaired tree's node order - in O(n) bookkeeping.
        """
        self._set_slots(
            np.array([self._state.slot_of_id(node.id) for node in nodes], dtype=np.intp)
        )

    # -- whole-universe structures -------------------------------------------

    @property
    def xy(self) -> np.ndarray:
        """``(n, 2)`` coordinates in dense order (always current)."""
        base = self._state.xy
        entry = self._xy_entry
        if self._contiguous:
            # A basic slice stays valid across in-place patches; only a
            # capacity growth (new base array) invalidates it.
            if entry is None or entry[0] is not base:
                entry = (base, base[: self._slots.size])
                self._xy_entry = entry
        else:
            if entry is None or entry[0] != self._state.version:
                entry = (self._state.version, _freeze(base[self._slots]))
                self._xy_entry = entry
        return entry[1]

    def _dense_view(self, key: object, base: np.ndarray) -> np.ndarray:
        """Whole-universe (n, n) slice of a capacity-sized state matrix.

        Contiguous views are zero-copy basic slices (valid across in-place
        patches); non-contiguous views are gathered copies refreshed when
        the state's version moves.
        """
        n = self._slots.size
        entry = self._dense_entries.get(key)
        if self._contiguous:
            if entry is None or entry[0] is not base:
                entry = (base, base[:n, :n])
                self._dense_entries[key] = entry
        else:
            if entry is None or entry[0] != self._state.version:
                entry = (
                    self._state.version,
                    _freeze(base[np.ix_(self._slots, self._slots)]),
                )
                self._dense_entries[key] = entry
        return entry[1]

    def distance_matrix(self) -> np.ndarray:
        """Full node-to-node distance matrix, in dense order."""
        return self._dense_view("dist", self._state.distance_matrix())

    def attenuation_matrix(self, alpha: float) -> np.ndarray:
        """Path-loss denominator ``max(d, 1e-300)**alpha``, in dense order.

        Entries with ``d <= 0`` are ``0.0`` (shared-kernel convention) so
        that dividing a positive power by the matrix yields ``inf`` there -
        exactly the ``np.where(dist <= 0, np.inf, ...)`` of the uncached
        decode.
        """
        return self._dense_view(("att", alpha), self._state.attenuation_matrix(alpha))

    def fade_matrix(self, model: "GainModel") -> np.ndarray | None:
        """Full-universe fade matrix of a *slot-invariant* gain model.

        Static fades (e.g. log-normal shadowing) are pure functions of node
        ids - positions never enter - so the state hashes the matrix once
        per model, patches only new rows under churn, and the view merely
        slices it.  ``None`` (unit gain) stays ``None``.
        """
        base = self._state.fade_matrix(model)
        if base is None:
            return None
        return self._dense_view(("fade", model), base)

    # -- block accessors (slot-decode hot paths) -----------------------------

    def _slot_rows_cols(
        self, rows: np.ndarray, cols: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """State slots of the view's ``rows`` and ``cols``.

        ``cols=None`` (the whole view) stays ``None`` on a contiguous view:
        the leading ``n`` columns of whole state rows are then the block.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if cols is not None:
            cols = np.asarray(cols, dtype=np.intp)
        if self._contiguous:
            return rows, cols
        return self._slots[rows], self._slots if cols is None else self._slots[cols]

    def attenuation_block(
        self,
        alpha: float,
        rows: np.ndarray,
        cols: np.ndarray | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> np.ndarray:
        """Attenuation rectangle ``rows x cols`` (``cols=None`` = whole view).

        One :meth:`~repro.state.NetworkState.attenuation_rect` call on the
        state's slots - O(|rows| * |cols|), no dense (n, n) copy even when
        the view is non-contiguous.  Either store gives the same floats.
        """
        r, c = self._slot_rows_cols(rows, cols)
        block = self._state.attenuation_rect(alpha, r, c, workspace=workspace, key="cache.att")
        return block if c is not None else block[:, : self._slots.size]

    def fade_block(
        self,
        model: "GainModel",
        rows: np.ndarray,
        cols: np.ndarray | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> np.ndarray | None:
        """Slot-invariant fade rectangle, or ``None`` for unit gain."""
        r, c = self._slot_rows_cols(rows, cols)
        block = self._state.fade_rect(model, r, c, workspace=workspace, key="cache.fade")
        return block if block is None or c is not None else block[:, : self._slots.size]

    # -- mutation ------------------------------------------------------------

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move a subset of nodes, patching the state matrices incrementally.

        The mobility models of ``repro.dynamics`` call this between slots:
        instead of rebuilding the O(n^2) distance and attenuation matrices
        from scratch, the state recomputes only the rows and columns of the
        ``k`` moved nodes - O(k * capacity) work per step, bit-for-bit
        identical to a full rebuild from the new coordinates (``hypot`` is
        sign-insensitive, so mirroring rows into columns is exact).  Node
        objects are refreshed in the state, so :attr:`nodes` always reflects
        the current positions.

        Args:
            indices: dense view indices of the nodes that moved.
            new_xy: their new coordinates, shape ``(len(indices), 2)``.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return
        self._state.move_nodes(self._slots[idx], new_xy)


class AffectanceAccumulator:
    """Incremental row accumulator over a pairwise affectance matrix.

    Tracks, for a growing/shrinking member set ``S`` of universe indices, the
    vector ``totals[j] = sum_{i in S} matrix[i, j]`` for *every* universe
    index ``j``.  Adding or removing a member is one vector operation (O(m));
    querying the affectance a candidate would suffer from ``S`` is O(1), and
    the worst total inside ``S`` if a candidate joined is O(|S|).  This
    replaces the full O(m^2) matrix recomputation the greedy loops used to
    perform per accepted link.

    Member contributions are accumulated in insertion order, so the totals
    match the equivalent sequential scalar sums bit-for-bit (removal is a
    subtraction and may leave the usual floating-point residue; the parity
    tests bound it).
    """

    def __init__(self, matrix: np.ndarray, members: Iterable[int] = ()) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        self._matrix = matrix
        self._totals = np.zeros(matrix.shape[0], dtype=float)
        self._members: list[int] = []
        self._in_set = np.zeros(matrix.shape[0], dtype=bool)
        self._member_array: np.ndarray | None = None
        for index in members:
            self.add(index)

    @property
    def matrix(self) -> np.ndarray:
        """The underlying pairwise matrix."""
        return self._matrix

    @property
    def members(self) -> tuple[int, ...]:
        """Current member indices, in insertion order."""
        return tuple(self._members)

    def member_indices(self) -> np.ndarray:
        """Current member indices as an integer array (cached between edits)."""
        if self._member_array is None:
            self._member_array = np.array(self._members, dtype=np.intp)
        return self._member_array

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, index: int) -> bool:
        return bool(self._in_set[index])

    def total(self, index: int) -> float:
        """Affectance the member set currently exerts on universe index ``index``."""
        return float(self._totals[index])

    def totals(self) -> np.ndarray:
        """Copy of the full per-index totals vector."""
        return self._totals.copy()

    def add(self, index: int) -> None:
        """Add a universe index to the member set (O(m))."""
        index = int(index)
        if self._in_set[index]:
            raise ValueError(f"index {index} is already a member")
        self._totals += self._matrix[index]
        self._in_set[index] = True
        self._members.append(index)
        self._member_array = None

    def remove(self, index: int) -> None:
        """Remove a universe index from the member set (O(m))."""
        index = int(index)
        if not self._in_set[index]:
            raise ValueError(f"index {index} is not a member")
        self._totals -= self._matrix[index]
        self._in_set[index] = False
        self._members.remove(index)
        self._member_array = None

    def max_total_with(self, index: int) -> float:
        """Worst per-member total if ``index`` joined the member set.

        Covers both directions: the affectance the candidate would suffer
        from the members, and each member's total after the candidate's row
        is added.  The candidate must not already be a member.
        """
        index = int(index)
        if self._in_set[index]:
            raise ValueError(f"index {index} is already a member")
        worst = self._totals[index]
        if self._members:
            mem = self.member_indices()
            member_totals = self._totals[mem] + self._matrix[index, mem]
            worst = max(worst, member_totals.max())
        return float(worst)

    def fits(self, index: int, limit: float) -> bool:
        """Whether adding ``index`` keeps every total at most ``limit``."""
        return self.max_total_with(index) <= limit
