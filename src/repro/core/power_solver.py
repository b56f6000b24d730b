"""Power assignment computation for a feasible link set (Section 8.2.3).

The paper uses, as a black box, any algorithm that converges to a feasible
power assignment for a set of links known to be power-controllable - citing
the distributed power-control dynamics of Lotker et al. [17] and Dams et al.
[2].  We substitute the canonical member of that family:

* an exact feasibility test based on the spectral radius of the normalized
  gain matrix: the set admits a feasible power assignment iff
  ``rho(B) < 1`` where ``B[i, j] = beta * G[i, j] / G[i, i]`` for ``i != j``;
* the closed-form minimal solution ``P = (I - B)^{-1} c`` with
  ``c[i] = beta * N / G[i, i]``;
* the Foschini-Miljanic iteration, the distributed dynamic the cited papers
  analyze, which converges to that same fixed point whenever it exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConvergenceError, InfeasiblePowerError
from ..links import Link
from ..sinr import ExplicitPower, PositionedLinks, SINRParameters, as_positioned_links

__all__ = [
    "gain_matrix",
    "spectral_radius",
    "is_power_controllable",
    "solve_power",
    "foschini_miljanic",
    "PowerControlResult",
]


def gain_matrix(links: Sequence[Link] | PositionedLinks, params: SINRParameters) -> np.ndarray:
    """Channel gain matrix ``G`` with ``G[i, j] = 1 / d(sender_j, receiver_i)**alpha``.

    Row ``i`` is link ``i``'s receiver; column ``j`` is link ``j``'s sender.
    Pairs with coincident sender and receiver positions get an infinite gain.
    """
    return as_positioned_links(links).gain_matrix(params)


def _normalized_interference_matrix(
    links: Sequence[Link] | PositionedLinks, params: SINRParameters, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """The matrix ``B`` and vector ``c`` of the power-control fixed point."""
    positioned = as_positioned_links(links)
    gains = positioned.gain_matrix(params)
    diag = np.diag(gains).copy()
    if np.any(~np.isfinite(diag)) or np.any(diag <= 0):
        raise InfeasiblePowerError("some link has a degenerate (zero-length) geometry")
    senders = positioned.senders  # one slot per node id
    off = np.where(senders[:, None] == senders[None, :], 0.0, gains)
    np.fill_diagonal(off, 0.0)
    if np.any(~np.isfinite(off)):
        raise InfeasiblePowerError("two distinct links share a sender/receiver position")
    target = params.beta * margin
    matrix = target * off / diag[:, None]
    constant = target * params.noise / diag
    return matrix, constant


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest absolute eigenvalue of a square matrix (0 for empty input)."""
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def is_power_controllable(
    links: Sequence[Link], params: SINRParameters, margin: float = 1.0
) -> bool:
    """Whether some power assignment makes the set feasible with the given margin.

    Structural conflicts (shared nodes) are not checked here - they concern
    schedulability of one physical slot, not Eqn. (1); use
    ``repro.sinr.is_schedulable_slot`` on the solved assignment for that.
    """
    if len(links) <= 1:
        return True
    try:
        matrix, _ = _normalized_interference_matrix(links, params, margin)
    except InfeasiblePowerError:
        return False
    return spectral_radius(matrix) < 1.0 - 1e-12


def solve_power(
    links: Sequence[Link], params: SINRParameters, margin: float = 1.0
) -> ExplicitPower:
    """Minimal feasible power assignment for a power-controllable link set.

    Args:
        links: the link set (each link's SINR must reach ``margin * beta``).
        params: physical-model parameters.
        margin: extra SINR headroom factor (1.0 = exactly the threshold).

    Raises:
        InfeasiblePowerError: if no power assignment achieves the target SINR.
    """
    link_list = list(links)
    if not link_list:
        return ExplicitPower({})
    if len(link_list) == 1:
        only = link_list[0]
        level = params.min_power_for(only.length) if params.noise > 0 else only.length**params.alpha
        return ExplicitPower({only.endpoint_ids: max(level, 1e-12)})

    matrix, constant = _normalized_interference_matrix(link_list, params, margin)
    if spectral_radius(matrix) >= 1.0 - 1e-12:
        raise InfeasiblePowerError(
            f"link set of size {len(link_list)} is not power-controllable at margin {margin}"
        )
    identity = np.eye(matrix.shape[0])
    if params.noise > 0:
        powers = np.linalg.solve(identity - matrix, constant)
    else:
        # Without noise the feasible powers form a cone; use the Perron vector
        # of the interference matrix scaled away from the boundary.
        eigenvalues, eigenvectors = np.linalg.eig(matrix + 1e-9 * identity)
        index = int(np.argmax(np.abs(eigenvalues)))
        vector = np.abs(np.real(eigenvectors[:, index]))
        powers = vector / max(vector.max(), 1e-300)
        powers = np.maximum(powers, 1e-9)
        # Scale so every link meets the SINR constraint exactly with slack.
        powers = _rescale_for_feasibility(powers, matrix, constant)
    powers = np.maximum(powers, 1e-300)
    return ExplicitPower({link.endpoint_ids: float(p) for link, p in zip(link_list, powers)})


def _rescale_for_feasibility(
    powers: np.ndarray, matrix: np.ndarray, constant: np.ndarray
) -> np.ndarray:
    """Scale a candidate power vector until ``P >= B P + c`` holds component-wise."""
    required = matrix @ powers + constant
    ratio = np.max(np.where(powers > 0, required / powers, np.inf))
    if not np.isfinite(ratio) or ratio <= 0:
        return powers
    return powers * ratio * 1.000001


@dataclass(frozen=True)
class PowerControlResult:
    """Outcome of the iterative Foschini-Miljanic dynamic.

    Attributes:
        power: the converged assignment.
        iterations: number of synchronous update rounds executed.
        converged: whether the stopping tolerance was met within the budget.
    """

    power: ExplicitPower
    iterations: int
    converged: bool


def foschini_miljanic(
    links: Sequence[Link],
    params: SINRParameters,
    *,
    margin: float = 1.0,
    max_iterations: int = 2000,
    tolerance: float = 1e-9,
    raise_on_failure: bool = True,
) -> PowerControlResult:
    """Distributed iterative power control (the [17]/[2] substitute).

    Every link repeatedly sets its power to the smallest value that would meet
    its SINR target given the interference it currently measures:
    ``P_i <- margin * beta * (N + I_i) / G_ii``.  The iteration converges to the
    minimal feasible assignment exactly when one exists.

    Raises:
        ConvergenceError: if ``raise_on_failure`` and the iteration diverges or
            fails to reach the tolerance within ``max_iterations``.
    """
    link_list = list(links)
    if not link_list:
        return PowerControlResult(ExplicitPower({}), 0, True)
    matrix, constant = _normalized_interference_matrix(link_list, params, margin)
    m = len(link_list)
    if params.noise > 0:
        powers = constant.copy()
    else:
        powers = np.full(m, 1.0)
    converged = False
    iterations = 0
    ceiling = 1e280
    for iterations in range(1, max_iterations + 1):
        updated = matrix @ powers + constant
        if params.noise == 0:
            updated = np.maximum(updated, 1e-12)
        change = np.max(np.abs(updated - powers) / np.maximum(np.abs(powers), 1e-30))
        powers = updated
        if np.any(powers > ceiling):
            break
        if change < tolerance:
            converged = True
            break
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"Foschini-Miljanic did not converge in {max_iterations} iterations "
            f"(the link set is likely not power-controllable)"
        )
    powers = np.maximum(powers, 1e-300)
    assignment = ExplicitPower(
        {link.endpoint_ids: float(p) for link, p in zip(link_list, powers)}
    )
    return PowerControlResult(power=assignment, iterations=iterations, converged=converged)
