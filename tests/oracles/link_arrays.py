"""The ``Link``-keyed link-array cache: the parity reference of
:class:`~repro.sinr.PositionedLinks`' whole-set forms.

Before the whole-set entry points (``affectance_matrix``, ``sinr_values``,
``feasibility_report``, the power solver's gain matrix, the greedy capacity
loops) positioned their links on a store, each call built a
:class:`LinkArrayCache`: struct-of-arrays copies of the links' coordinates,
ids and lengths, with memoised distance, affectance, SINR and gain matrices
per ``(id(power), params)``, and subsets sliced from them.  It is kept here,
with its two array kernels, so the tests can show the positional forms give
the same floats, bit for bit; ``Distr-Cap``'s link-object oracle reads its
phase-slot blocks from it (``link_affectance_block``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.links import Link
from repro.sinr import PowerAssignment, SINRParameters
from repro.sinr.positioned import _affectance_kernel
from repro.state import NetworkState, attenuation_from_distances, pairwise_distances
from repro.state.network import _freeze

__all__ = ["LinkArrayCache", "affectance_matrix_from_arrays", "sinr_values_from_arrays"]


def affectance_matrix_from_arrays(
    dist: np.ndarray,
    same_sender: np.ndarray,
    lengths: np.ndarray,
    powers: np.ndarray,
    params: SINRParameters,
    cross_fade: np.ndarray | None = None,
    signal_fade: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise affectance matrix from precomputed arrays.

    ``dist[i, j]`` is the distance from link ``i``'s sender to link ``j``'s
    receiver and ``same_sender[i, j]`` marks pairs sharing a sender node.
    ``cross_fade``/``signal_fade`` are the optional gain-model fade factors.
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


def sinr_values_from_arrays(
    dist: np.ndarray,
    same_sender: np.ndarray,
    lengths: np.ndarray,
    powers: np.ndarray,
    params: SINRParameters,
    cross_fade: np.ndarray | None = None,
    signal_fade: np.ndarray | None = None,
) -> np.ndarray:
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

    The cache behaves as an immutable sequence of its links and serves every
    derived array - distances, powers, costs, affectance matrices, SINR
    vectors, gain matrices - from a lazily computed, reusable store, keyed
    by ``id(power)``.  Subsets are addressed by integer index into the
    universe.

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
