"""Planar points and distance helpers.

All geometry in the paper lives in the Euclidean plane; the minimum pairwise
distance among nodes is normalized to 1 and the maximum possible link length
is denoted ``Delta``.  This module provides a small, immutable :class:`Point`
value type plus vectorized distance utilities used throughout the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Point",
    "distance",
    "distance_matrix",
    "points_to_array",
    "min_pairwise_distance",
    "max_pairwise_distance",
    "max_distance_xy",
    "distance_ratio",
]

#: Pairs evaluated per block by the exact scan of :func:`max_distance_xy`,
#: bounding its scratch memory.
_DIAMETER_BLOCK_PAIRS = 1 << 18
#: Relative slack of the :func:`max_distance_xy` filter, far above the
#: few-ulp rounding of ``hypot`` and of a coordinate difference.
_DIAMETER_SLACK = 1e-9
#: Absolute slack of the filter: covers the rounding of subnormal results,
#: where a relative bound does not hold.
_DIAMETER_TINY = 1e-300


@dataclass(frozen=True, order=True)
class Point:
    """An immutable point in the plane."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy of this point translated by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def scaled(self, factor: float) -> "Point":
        """Return a copy of this point scaled about the origin."""
        return Point(self.x * factor, self.y * factor)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def points_to_array(points: Sequence[Point] | Iterable[Point]) -> np.ndarray:
    """Convert an iterable of points to an ``(n, 2)`` float array."""
    pts = list(points)
    if not pts:
        return np.empty((0, 2), dtype=float)
    return np.array([(p.x, p.y) for p in pts], dtype=float)


def distance_matrix(points: Sequence[Point]) -> np.ndarray:
    """Pairwise Euclidean distance matrix for a sequence of points."""
    arr = points_to_array(points)
    if arr.shape[0] == 0:
        return np.empty((0, 0), dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def min_pairwise_distance(points: Sequence[Point]) -> float:
    """Minimum distance between any two distinct points.

    Raises:
        ValueError: if fewer than two points are given.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to compute a pairwise distance")
    dm = distance_matrix(points)
    np.fill_diagonal(dm, np.inf)
    return float(dm.min())


def max_pairwise_distance(points: Sequence[Point]) -> float:
    """Maximum distance between any two points (the diameter of the set)."""
    if len(points) < 2:
        raise ValueError("need at least two points to compute a pairwise distance")
    return max_distance_xy(points_to_array(points))


def _hypot_to(xy: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Distance of every row of ``xy`` to ``point``, by the matrix's expression."""
    diff = xy - point
    return np.hypot(diff[:, 0], diff[:, 1])


def _blocked_max_distance(xy: np.ndarray) -> float:
    """Exact maximum over all pairs of ``xy``, scanned in row blocks (O(n) memory)."""
    n = xy.shape[0]
    rows = max(1, _DIAMETER_BLOCK_PAIRS // max(n, 1))
    block_maxima = []
    for start in range(0, n, rows):
        diff = xy[start : start + rows, None, :] - xy[None, :, :]
        block_maxima.append(np.hypot(diff[..., 0], diff[..., 1]).max())
    # np.max, not the builtin: a NaN coordinate must propagate as it would
    # through the full matrix.
    return float(np.max(block_maxima)) if block_maxima else 0.0


def max_distance_xy(xy: np.ndarray) -> float:
    """Largest distance between two rows of an ``(n, 2)`` array (``0.0`` for n < 2).

    Bitwise equal to ``distance_matrix(...).max()`` in O(n) memory, and for
    most sets in O(n) time.  With ``c`` the bounding box's centre,
    ``r_i = |p_i - c|`` and ``lb`` the farthest distance from the point
    farthest from ``c`` (itself a pair distance, so ``lb <= D``), a pair
    whose distance reaches ``lb`` satisfies ``|p_i - p_j| <= r_i + r_j <=
    r_i + r_max`` by the triangle inequality.  So every point of such a
    pair - the farthest pair among them - passes ``(r_i + r_max)(1 + s) + t
    >= lb (1 - s)``, with the slack ``s`` far above the rounding of these
    ``hypot`` values and ``t`` above that of subnormal ones.  The exact scan over the points that pass then sees
    the same maximum, computed by the same expression.  A set whose points
    all sit near one circle around ``c`` keeps them all and costs the full
    O(n^2) scan.  Non-finite coordinates take the full scan, so a NaN
    propagates as through the matrix.
    """
    if xy.shape[0] < 2 or not np.isfinite(xy).all():
        return _blocked_max_distance(xy)
    # 0.5*lo + 0.5*hi cannot overflow, so the centre is finite.
    centre = 0.5 * xy.min(axis=0) + 0.5 * xy.max(axis=0)
    radius = _hypot_to(xy, centre)
    far = int(radius.argmax())
    lower = float(_hypot_to(xy, xy[far]).max())
    if lower == math.inf:
        # A difference overflowed: no pair can exceed it.
        return lower
    bound = (radius + radius[far]) * (1.0 + _DIAMETER_SLACK) + _DIAMETER_TINY
    return _blocked_max_distance(xy[bound >= lower * (1.0 - _DIAMETER_SLACK)])


def distance_ratio(points: Sequence[Point]) -> float:
    """The ratio Delta between the longest and shortest pairwise distances."""
    dm = distance_matrix(points)
    np.fill_diagonal(dm, np.inf)
    dmin = float(dm.min())
    np.fill_diagonal(dm, -np.inf)
    dmax = float(dm.max())
    if dmin <= 0:
        raise ValueError("duplicate points: minimum pairwise distance is zero")
    return dmax / dmin
