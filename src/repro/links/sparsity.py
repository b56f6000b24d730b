"""Sparsity of link sets (Definition 8 of the paper).

A link set ``L`` is *psi-sparse* if for every closed ball ``B`` in the plane,
the number of links of length at least ``8 * rad(B)`` having at least one
endpoint in ``B`` is at most ``psi``.

Measuring the exact psi over *all* balls is unnecessary: the supremum is
attained (up to a constant factor) by balls centered at link endpoints with
radii taken from the set ``{length / 8 : length a link length}``.  The
estimator below enumerates exactly those candidate balls, which mirrors the
"polynomially many relevant balls" remark preceding Theorem 11 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..geometry import Node
from .link import Link
from .linkset import LinkSet

__all__ = ["SparsityReport", "sparsity", "is_sparse", "sparsity_profile"]


@dataclass(frozen=True)
class SparsityReport:
    """Result of a sparsity measurement.

    Attributes:
        psi: the measured sparsity (maximum count over candidate balls).
        witness_center: id of the node at the center of the maximizing ball.
        witness_radius: radius of the maximizing ball.
        balls_examined: number of candidate balls enumerated.
    """

    psi: int
    witness_center: int | None
    witness_radius: float
    balls_examined: int


def _endpoint_arrays(links: Sequence[Link]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    senders = np.array([[l.sender.x, l.sender.y] for l in links], dtype=float)
    receivers = np.array([[l.receiver.x, l.receiver.y] for l in links], dtype=float)
    lengths = np.array([l.length for l in links], dtype=float)
    return senders, receivers, lengths


def sparsity(links: Iterable[Link], length_factor: float = 8.0) -> SparsityReport:
    """Measure the sparsity psi of a link set.

    Args:
        links: the link set to measure.
        length_factor: the ``8`` in Definition 8; exposed for sensitivity
            studies.

    Returns:
        A :class:`SparsityReport`; ``psi`` is 0 for an empty set.
    """
    link_list = list(links)
    if not link_list:
        return SparsityReport(psi=0, witness_center=None, witness_radius=0.0, balls_examined=0)
    if length_factor <= 0:
        raise ValueError("length_factor must be positive")

    senders, receivers, lengths = _endpoint_arrays(link_list)
    # Candidate radii: one per distinct link length (ball radius = length / factor),
    # ascending.  Sort-and-compare rather than np.unique, which imports numpy.ma.
    ranked = np.sort(lengths)
    distinct = np.ones(ranked.shape[0], dtype=bool)
    distinct[1:] = ranked[1:] != ranked[:-1]
    radii = ranked[distinct] / length_factor
    # Candidate centers: all link endpoints.
    centers = np.concatenate([senders, receivers])
    center_ids = [l.sender.id for l in link_list] + [l.receiver.id for l in link_list]

    best = 0
    best_center: int | None = None
    best_radius = 0.0
    balls = 0
    for radius in radii:
        threshold = radius * length_factor
        eligible = lengths >= threshold - 1e-12
        if not eligible.any():
            continue
        elig_s = senders[eligible]
        elig_r = receivers[eligible]
        for c_index in range(centers.shape[0]):
            balls += 1
            center = centers[c_index]
            ds = np.hypot(elig_s[:, 0] - center[0], elig_s[:, 1] - center[1])
            dr = np.hypot(elig_r[:, 0] - center[0], elig_r[:, 1] - center[1])
            count = int(np.count_nonzero((ds <= radius + 1e-12) | (dr <= radius + 1e-12)))
            if count > best:
                best = count
                best_center = center_ids[c_index]
                best_radius = float(radius)
    return SparsityReport(
        psi=best, witness_center=best_center, witness_radius=best_radius, balls_examined=balls
    )


def is_sparse(links: Iterable[Link], psi: int, length_factor: float = 8.0) -> bool:
    """Whether the link set is ``psi``-sparse."""
    return sparsity(links, length_factor).psi <= psi


def sparsity_profile(
    links: LinkSet, radii: Sequence[float], length_factor: float = 8.0
) -> dict[float, int]:
    """Maximum in-ball count of long links for each radius in ``radii``.

    Unlike :func:`sparsity`, which searches over all radii, this reports the
    per-radius maxima, which is useful for plotting how the sparsity bound is
    approached.
    """
    link_list = list(links)
    result: dict[float, int] = {}
    if not link_list:
        return {float(r): 0 for r in radii}
    senders, receivers, lengths = _endpoint_arrays(link_list)
    centers = np.concatenate([senders, receivers])
    for radius in radii:
        if radius <= 0:
            raise ValueError("radii must be positive")
        threshold = radius * length_factor
        eligible = lengths >= threshold - 1e-12
        best = 0
        if eligible.any():
            elig_s = senders[eligible]
            elig_r = receivers[eligible]
            for c_index in range(centers.shape[0]):
                center = centers[c_index]
                ds = np.hypot(elig_s[:, 0] - center[0], elig_s[:, 1] - center[1])
                dr = np.hypot(elig_r[:, 0] - center[0], elig_r[:, 1] - center[1])
                count = int(np.count_nonzero((ds <= radius + 1e-12) | (dr <= radius + 1e-12)))
                best = max(best, count)
        result[float(radius)] = best
    return result
