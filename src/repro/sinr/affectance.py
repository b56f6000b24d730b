"""Affectance: normalized, thresholded interference (Section 5 of the paper).

The affectance of a sender ``w`` (transmitting with power ``P_w``) on a link
``l = (u, v)`` whose own sender uses power ``P_u`` is

    a_w(l) = min( 1 + epsilon,
                  c(u, v) * (P_w / P_u) * (d(u, v) / d(w, v))**alpha )

with the link cost ``c(u, v) = beta / (1 - beta * N * d(u,v)**alpha / P_u)``.
A link set ``L`` is feasible exactly when the total affectance on each of its
links from the other senders is at most 1 (the thresholded rewriting of
Eqn. (1) adopted in the paper).

This module provides the affectance between single senders and links (the
definition, used by ``pair_weight`` and by the tests that pin the vectorized
forms) and the pairwise affectance matrix of a link set (used by schedulers,
validators and benchmarks).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..geometry import Node
from ..links import Link
from .parameters import SINRParameters
from .power import PowerAssignment

__all__ = [
    "link_cost",
    "affectance",
    "affectance_between_links",
    "affectance_matrix",
]


def _scalar_fade(params: SINRParameters, tx_id: int, rx_id: int) -> float:
    """Slot-free gain-model fade for one ordered node pair (1.0 = unit gain)."""
    model = params.effective_gain_model
    if model is None:
        return 1.0
    fade = model.fade_pairs(
        np.array([tx_id], dtype=np.int64), np.array([rx_id], dtype=np.int64), None
    )
    return 1.0 if fade is None else float(fade[0])


def link_cost(link: Link, sender_power: float, params: SINRParameters) -> float:
    """The cost term ``c(u, v)`` of a link given its sender's power.

    Returns ``math.inf`` when the power cannot overcome noise even without
    interference (the link is then infeasible outright).  Under a stochastic
    ``params.gain_model`` the sender's signal arrives scaled by the pair's
    fade factor, exactly as in the matrix kernels.
    """
    if sender_power <= 0:
        raise ValueError("sender_power must be positive")
    if params.noise == 0:
        return params.beta
    received = sender_power * _scalar_fade(params, link.sender.id, link.receiver.id)
    margin = 1.0 - params.beta * params.noise * link.length**params.alpha / received
    if margin <= 0:
        return math.inf
    return params.beta / margin


def affectance(
    interferer: Node,
    interferer_power: float,
    link: Link,
    link_power: float,
    params: SINRParameters,
) -> float:
    """Affectance of a single interfering sender on a link.

    The link's own sender never affects itself (returns 0).  An interferer
    co-located with the link's receiver saturates at ``1 + epsilon``.
    Gain-model fades scale both the interferer's landed power and the link's
    own signal, keeping this scalar form consistent with the
    :class:`~repro.sinr.arrays.LinkArrayCache` matrix path.
    """
    if interferer.id == link.sender.id:
        return 0.0
    if interferer_power <= 0:
        raise ValueError("interferer_power must be positive")
    cost = link_cost(link, link_power, params)
    cap = 1.0 + params.epsilon
    if math.isinf(cost):
        return cap
    separation = interferer.distance_to(link.receiver)
    if separation <= 0:
        return cap
    if params.effective_gain_model is None:
        power_ratio = interferer_power / link_power
    else:
        landed = interferer_power * _scalar_fade(params, interferer.id, link.receiver.id)
        wanted = link_power * _scalar_fade(params, link.sender.id, link.receiver.id)
        power_ratio = landed / wanted
    raw = cost * power_ratio * (link.length / separation) ** params.alpha
    return min(cap, raw)


def affectance_between_links(
    source: Link,
    target: Link,
    power: PowerAssignment,
    params: SINRParameters,
) -> float:
    """Affectance of ``source``'s sender (at its assigned power) on ``target``."""
    return affectance(
        interferer=source.sender,
        interferer_power=power.power(source),
        link=target,
        link_power=power.power(target),
        params=params,
    )


def affectance_matrix(
    links: Sequence[Link],
    power: PowerAssignment,
    params: SINRParameters,
) -> np.ndarray:
    """Pairwise affectance matrix ``A`` with ``A[i, j] = a_{l_i}(l_j)``.

    Row ``i`` is the affectance *caused by* link ``i``'s sender; column ``j``
    is the affectance *suffered by* link ``j``.  Diagonal entries are zero, as
    are entries where two links share the same sender node (a sender does not
    interfere with its own transmissions).

    ``links`` may be a :class:`~repro.sinr.arrays.LinkArrayCache`, in which
    case the cached structures are reused; the returned matrix is always a
    fresh writable array.
    """
    from .arrays import LinkArrayCache  # the array layer loads on first use

    cache = links if isinstance(links, LinkArrayCache) else LinkArrayCache(links)
    return np.array(cache.affectance_matrix(power, params))
