"""Links by position: (sender, receiver) slots of one geometry store.

:class:`PositionedLinks` is the one link-array type of the SINR substrate.
The capacity selectors (``Distr-Cap`` and mean-power sampling) read
affectance blocks from it: ``TreeViaCapacity`` hands them ``T(M)`` as its
Init tree's positions.  The whole-set entry points (``affectance_matrix``,
``sinr_values``, ``feasibility_report``, the power solver's gain matrix and
the greedy capacity loops) map a ``Link`` collection to slots once with
:meth:`PositionedLinks.from_links` and read the whole set's matrices from
it.  :class:`AffectanceAccumulator` turns a whole-set affectance matrix
into the incremental sums of those greedy loops.

The arithmetic is the seed's, elementwise: :func:`_affectance_kernel` is
the one affectance implementation, and the parity tests pin every form
against the seed scalar loops and the ``Link``-keyed cache it replaced
(``tests/oracles/link_arrays.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..contracts import hot_kernel
from ..links import Link
from ..state import DecodeWorkspace, NetworkState, attenuation_from_distances
from .parameters import SINRParameters

__all__ = ["AffectanceAccumulator", "PositionedLinks", "as_positioned_links"]


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


def _affectance_block(
    dist: np.ndarray,
    ids: tuple[np.ndarray, np.ndarray, np.ndarray],
    col_lengths: np.ndarray,
    row_powers: np.ndarray,
    col_powers: np.ndarray,
    params: SINRParameters,
    workspace: DecodeWorkspace | None,
) -> np.ndarray:
    """An affectance block from its distances and endpoint ids.

    ``ids`` holds the row senders' ids and the column links' sender and
    receiver ids.  Pairs sharing a sender are zero (a link and itself among
    them); a gain model's fades are drawn by id pair, slot-free.
    """
    row_tx, col_tx, col_rx = ids
    if workspace is None:
        zero_mask = row_tx[:, None] == col_tx[None, :]
    else:
        zero_mask = workspace.bools("aff.zero", row_tx.size, col_tx.size)
        np.equal(row_tx[:, None], col_tx[None, :], out=zero_mask)
    cross_fade = signal_fade = None
    model = params.effective_gain_model
    if model is not None:
        cross_fade = model.fade(row_tx, col_rx)
        signal_fade = model.fade_pairs(col_tx, col_rx)
    return _affectance_kernel(
        dist,
        zero_mask,
        col_lengths,
        row_powers,
        col_powers,
        params,
        cross_fade,
        signal_fade,
        workspace,
    )


class PositionedLinks:
    """Links as (sender, receiver) slot arrays of one geometry store.

    ``TreeViaCapacity`` hands ``T(M)`` over as its Init tree's (child,
    parent) positions, which are slots of the population's store; a ``Link``
    collection is mapped to slots once, by :meth:`from_links`.  ``Link``
    objects are built only on request (:meth:`links`).

    Args:
        state: the store holding every endpoint.
        senders: each link's sender slot.
        receivers: each link's receiver slot.
        rounds: optional per-link phase key of ``Distr-Cap`` (the Init
            round that formed the link).
        lengths: optional per-link lengths; by default ``math.hypot`` of the
            stored coordinates' differences, the floats ``Link.length`` gives.
    """

    __slots__ = ("_lengths", "_links", "receivers", "rounds", "senders", "state")

    def __init__(
        self,
        state: NetworkState,
        senders: np.ndarray,
        receivers: np.ndarray,
        rounds: np.ndarray | None = None,
        lengths: Sequence[float] | None = None,
    ) -> None:
        self.state = state
        self.senders = senders
        self.receivers = receivers
        self.rounds = rounds
        self._lengths = None if lengths is None else np.array(lengths, dtype=float)
        self._links: list[Link] | None = None

    @classmethod
    def from_links(
        cls, links: Iterable[Link], state: NetworkState | None = None
    ) -> "PositionedLinks":
        """The links as slots of ``state``, or of a store over their endpoints.

        A given store must hold every endpoint, at the position the link
        has it.  Without one, :meth:`NetworkState.from_links` builds a dense
        store, which computes no matrix until a rectangle is asked for.  The
        lengths are the links' own, and :meth:`links` returns the links.

        Raises:
            ValueError: if an endpoint is not in ``state``.
        """
        link_list = list(links)
        if state is None:
            state = NetworkState.from_links(link_list)
        ids = [node.id for link in link_list for node in (link.sender, link.receiver)]
        try:
            slots = np.fromiter(map(state.slot_of_id, ids), dtype=np.intp, count=len(ids))
        except KeyError as exc:
            raise ValueError(
                f"link endpoint {exc.args[0]!r} is not in the shared NetworkState"
            ) from exc
        positioned = cls(
            state, slots[0::2], slots[1::2], lengths=[link.length for link in link_list]
        )
        positioned._links = link_list
        return positioned

    def __len__(self) -> int:
        return int(self.senders.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """Each link's length, computed on first read."""
        if self._lengths is None:
            xy = self.state.xy
            diffs = (xy[self.senders] - xy[self.receivers]).tolist()
            self._lengths = np.array([math.hypot(dx, dy) for dx, dy in diffs], dtype=float)
        return self._lengths

    def links(self, index: np.ndarray | None = None) -> list[Link]:
        """The links (those at ``index``, in its order) as ``Link`` objects:
        those :meth:`from_links` was given, or built from the store's nodes."""
        if self._links is not None:
            return list(self._links) if index is None else [self._links[i] for i in index.tolist()]
        senders = self.senders if index is None else self.senders[index]
        receivers = self.receivers if index is None else self.receivers[index]
        node_at = self.state.node_at
        return [
            Link(node_at(s), node_at(r)) for s, r in zip(senders.tolist(), receivers.tolist())
        ]

    def affectance_block(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        powers: np.ndarray,
        params: SINRParameters,
        *,
        dual: bool = False,
        workspace: DecodeWorkspace | None = None,
    ) -> np.ndarray:
        """Affectance of the ``rows`` links' senders on the ``cols`` links.

        ``powers`` holds every link's power; with ``dual`` each link
        transmits from its receiver (a link and its dual share a length).
        Elementwise :meth:`affectance_matrix` of these (oriented) links,
        sliced to the block: distances from the store's
        :meth:`~repro.state.NetworkState.distance_rect`, pairs sharing a
        sender slot zero.
        """
        tx, rx = (self.receivers, self.senders) if dual else (self.senders, self.receivers)
        row_tx, col_tx, col_rx = tx[rows], tx[cols], rx[cols]
        row_powers, col_powers = powers[rows], powers[cols]
        if (row_powers <= 0).any() or (col_powers <= 0).any():
            raise ValueError("all link powers must be positive")
        dist = self.state.distance_rect(row_tx, col_rx, workspace=workspace, key="aff.dist")
        ids = self.state.ids
        return _affectance_block(
            dist,
            (ids[row_tx], ids[col_tx], ids[col_rx]),
            self.lengths[cols],
            row_powers,
            col_powers,
            params,
            workspace,
        )

    # -- the whole set ---------------------------------------------------------

    def _ids(self) -> tuple[np.ndarray, np.ndarray]:
        ids = self.state.ids
        return ids[self.senders], ids[self.receivers]

    def affectance_matrix(self, powers: np.ndarray, params: SINRParameters) -> np.ndarray:
        """Pairwise affectance matrix ``A[i, j] = a_{l_i}(l_j)`` at per-link ``powers``.

        Row ``i`` is the affectance caused by link ``i``'s sender, column
        ``j`` the affectance suffered by link ``j``; pairs sharing a sender
        (the diagonal among them) are zero.  Link-level fades are the
        slot-free draws.

        Raises:
            ValueError: if a power is not positive.
        """
        if len(self) == 0:
            return np.zeros((0, 0), dtype=float)
        return self._affectance(self._whole_set(params), powers, params)

    def sinr_values(self, powers: np.ndarray, params: SINRParameters) -> np.ndarray:
        """Raw Eqn. (1) SINR at each receiver with every link's sender active."""
        if len(self) == 0:
            return np.zeros(0, dtype=float)
        return self._sinr(self._whole_set(params), powers, params)

    def affectance_and_sinr(
        self, powers: np.ndarray, params: SINRParameters
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`affectance_matrix` and :meth:`sinr_values`, from one distance rectangle."""
        if len(self) == 0:
            return np.zeros((0, 0), dtype=float), np.zeros(0, dtype=float)
        whole = self._whole_set(params)
        return self._affectance(whole, powers, params), self._sinr(whole, powers, params)

    def _whole_set(self, params: SINRParameters) -> tuple:
        """The whole set's distance rectangle, same-sender mask and slot-free
        fades (``None`` for unit gain)."""
        senders = self.senders
        dist = self.state.distance_rect(senders, self.receivers)
        fades: tuple = (None, None)
        model = params.effective_gain_model
        if model is not None:
            tx, rx = self._ids()
            fades = (model.fade(tx, rx), model.fade_pairs(tx, rx))
        # One slot per node id: equal sender slots are equal sender ids.
        return dist, senders[:, None] == senders[None, :], *fades

    def _affectance(self, whole: tuple, powers: np.ndarray, params: SINRParameters) -> np.ndarray:
        if np.any(powers <= 0):
            raise ValueError("all link powers must be positive")
        dist, same_sender, cross_fade, signal_fade = whole
        return _affectance_kernel(
            dist, same_sender, self.lengths, powers, powers, params, cross_fade, signal_fade
        )

    def _sinr(self, whole: tuple, powers: np.ndarray, params: SINRParameters) -> np.ndarray:
        dist, same_sender, cross_fade, signal_fade = whole
        with np.errstate(divide="ignore"):
            received = powers[:, None] / np.maximum(dist, 1e-300) ** params.alpha
        if cross_fade is not None:
            received = received * cross_fade
        signal = powers / self.lengths**params.alpha
        if signal_fade is not None:
            signal = signal * signal_fade
        interference = np.where(same_sender, 0.0, received).sum(axis=0)
        return signal / (params.noise + interference)

    def gain_matrix(self, params: SINRParameters) -> np.ndarray:
        """Channel gain matrix ``G[i, j] = 1 / d(sender_j, receiver_i)**alpha``.

        Row ``i`` is link ``i``'s receiver, column ``j`` link ``j``'s
        sender; colocated pairs have an infinite gain.
        """
        if len(self) == 0:
            return np.zeros((0, 0), dtype=float)
        dist = self.state.distance_rect(self.senders, self.receivers).T
        # The shared d**alpha kernel stores colocated pairs as 0.0, so the
        # reciprocal is inf there - the seed's
        # np.where(dist <= 0, inf, 1 / max(dist, 1e-300)**alpha).
        with np.errstate(divide="ignore"):
            gains = 1.0 / attenuation_from_distances(dist, params.alpha)
        model = params.effective_gain_model
        if model is not None:
            # fade(tx, rx)[j, i] is sender j's fade at receiver i.
            fade = model.fade(*self._ids())
            if fade is not None:
                gains = gains * fade.T
        return gains


def as_positioned_links(links: Sequence[Link] | PositionedLinks) -> PositionedLinks:
    """``links`` as :class:`PositionedLinks` (:meth:`~PositionedLinks.from_links`
    for a ``Link`` collection)."""
    return links if isinstance(links, PositionedLinks) else PositionedLinks.from_links(links)


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
