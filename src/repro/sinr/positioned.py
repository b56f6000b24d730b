"""Candidate links by position: (sender, receiver) slots of one geometry store.

The capacity selectors (``Distr-Cap`` and mean-power sampling) run on
:class:`PositionedLinks`: ``TreeViaCapacity`` hands them ``T(M)`` as its
Init tree's positions, and ``Link`` callers are mapped to slots once at the
selector's entry.  Blocks are gathered from the store by slot, with the
floats :class:`~repro.sinr.LinkArrayCache` computes on the same links.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..links import Link
from ..state import DecodeWorkspace, NetworkState
from .arrays import _affectance_kernel
from .parameters import SINRParameters

__all__ = ["PositionedLinks"]


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

    The selectors' positional candidate type: ``TreeViaCapacity`` hands
    ``T(M)`` over as its Init tree's (child, parent) positions, which are
    slots of the population's store, and a ``Link`` caller's links are
    mapped to slots once, at the selector's entry.  ``Link`` objects are
    built only on request (:meth:`links`).

    Args:
        state: the store holding every endpoint.
        senders: each link's sender slot.
        receivers: each link's receiver slot.
        rounds: optional per-link phase key of ``Distr-Cap`` (the Init
            round that formed the link).
        lengths: optional per-link lengths; by default ``math.hypot`` of the
            stored coordinates' differences, the floats ``Link.length`` gives.
    """

    __slots__ = ("_lengths", "receivers", "rounds", "senders", "state")

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
        """The links (those at ``index``, in its order) as ``Link`` objects."""
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
        Elementwise the affectance matrix of a
        :class:`~repro.sinr.LinkArrayCache` over these (oriented) links,
        sliced to the block, as the test oracle ``link_affectance_block``
        (``tests/oracles/distr_cap.py``) computes it: distances from the
        store's :meth:`~repro.state.NetworkState.distance_rect`, pairs
        sharing a sender slot zero.
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
