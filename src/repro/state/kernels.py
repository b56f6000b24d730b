"""Shared array kernels of the network-state layer.

These are the *single* implementations of the geometry/path-loss formulas
that used to be duplicated: the node view and the link arrays each
computed their own ``hypot`` distance matrices, and the ``d**alpha``
path-loss denominator appeared independently in the node attenuation
cache, the link gain matrix and the slot decode.  Every
``NetworkState``-derived matrix, node view and link array now routes
through the kernels below, so the patched (incremental) and rebuilt (from-scratch)
code paths are bit-for-bit identical by construction - they literally run
the same elementwise operations on the same floats.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .._types import FloatArray
from ..contracts import hot_kernel
from .slabs import run_slabs, slab_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scratch imports nothing back)
    from .scratch import DecodeWorkspace

__all__ = [
    "pairwise_distances",
    "attenuation_from_distances",
    "distance_rect_from_xy",
    "attenuation_rect_from_xy",
    "fill_attenuation_rows",
    "first_positions",
]


@hot_kernel(oracle="hypot", allocates=True)
def pairwise_distances(xy_a: FloatArray, xy_b: FloatArray | None = None) -> FloatArray:
    """Euclidean distance matrix ``D[i, j] = |xy_a[i] - xy_b[j]|``.

    ``xy_b=None`` means ``xy_a`` against itself.  This is the one ``hypot``
    expression behind every cached distance structure; the incremental
    row/column patches of :class:`~repro.state.NetworkState` evaluate the
    same expression on row blocks, so a patched matrix is bitwise equal to a
    rebuilt one (``hypot`` is symmetric in the sign of its arguments, which
    makes mirroring a row block into the columns exact).  The differences
    are two ``(n, m)`` planes, one per coordinate, and ``hypot`` writes into
    the first: no ``(n, m, 2)`` difference array is built.
    """
    if xy_b is None:
        xy_b = xy_a
    dx = np.subtract.outer(xy_a[:, 0], xy_b[:, 0])
    dy = np.subtract.outer(xy_a[:, 1], xy_b[:, 1])
    return np.hypot(dx, dy, out=dx)


@hot_kernel(oracle="_seed_attenuation", allocates=True)
def attenuation_from_distances(dist: FloatArray, alpha: float) -> FloatArray:
    """Path-loss denominator ``max(d, 1e-300)**alpha`` with colocated pairs zeroed.

    Entries with ``d <= 0`` are stored as ``0.0`` so that dividing a positive
    power by the result yields ``inf`` there - exactly the
    ``np.where(dist <= 0, np.inf, ...)`` convention of the uncached SINR
    kernels.  This is the shared ``d**alpha`` kernel: the node attenuation
    cache divides powers by it and the link gain matrix takes its
    reciprocal, so both agree with the seed arithmetic bit-for-bit.
    """
    att = np.maximum(dist, 1e-300) ** alpha
    att[dist <= 0] = 0.0
    return att


@hot_kernel(oracle="pairwise_distances")
def distance_rect_from_xy(
    xy_rows: FloatArray,
    xy_cols: FloatArray,
    workspace: "DecodeWorkspace | None" = None,
    key: str = "rect",
) -> FloatArray:
    """Distance rectangle straight from coordinates, no (cap, cap) matrix behind it.

    Elementwise this is exactly :func:`pairwise_distances` - ``hypot`` on the
    same coordinate differences - so a rectangle gathered from a dense
    patched matrix and one computed here from the same coordinates are
    bitwise equal.  With a workspace the subtraction and ``hypot`` run
    entirely in arena buffers (``out=``), keeping the decode loop
    allocation-free for the tiled store just like the dense gather path.
    """
    if workspace is None:
        return pairwise_distances(xy_rows, xy_cols)
    rows = xy_rows.shape[0]
    cols = xy_cols.shape[0]
    out = workspace.floats(key + ".dx", rows, cols)
    dy = workspace.floats(key + ".dy", rows, cols)
    np.subtract(xy_rows[:, 0][:, None], xy_cols[None, :, 0], out=out)
    np.subtract(xy_rows[:, 1][:, None], xy_cols[None, :, 1], out=dy)
    np.hypot(out, dy, out=out)
    return out


@hot_kernel(oracle="attenuation_from_distances")
def attenuation_rect_from_xy(
    xy_rows: FloatArray,
    xy_cols: FloatArray,
    alpha: float,
    workspace: "DecodeWorkspace | None" = None,
    key: str = "rect",
) -> FloatArray:
    """Attenuation rectangle from coordinates: ``max(d, 1e-300)**alpha``, colocated 0.

    Composition of :func:`distance_rect_from_xy` and the
    :func:`attenuation_from_distances` arithmetic, fused so the tiled store
    can serve ``attenuation_block`` rectangles without a backing matrix.
    Bitwise-equal to gathering the same rectangle out of a dense
    ``attenuation_matrix`` because every elementwise operation is identical.
    Without a workspace the rectangle is filled in place in row slabs
    (:func:`fill_attenuation_rows`).
    """
    shape = (xy_rows.shape[0], xy_cols.shape[0])
    if workspace is None:
        return fill_attenuation_rows(np.empty(shape), xy_rows, xy_cols, alpha)
    att = workspace.floats(key + ".att", *shape)
    dy = workspace.floats(key + ".dy", *shape)
    colocated = workspace.bools(key + ".colocated", *shape)
    _attenuation_into(att, dy, colocated, xy_rows, xy_cols, alpha)
    return att


def fill_attenuation_rows(
    out: FloatArray, xy_rows: FloatArray, xy_cols: FloatArray, alpha: float
) -> FloatArray:
    """Write the attenuation rectangle of ``xy_rows`` x ``xy_cols`` into ``out``.

    The floats of ``attenuation_from_distances(pairwise_distances(xy_rows,
    xy_cols), alpha)``, computed straight into ``out`` (a C-contiguous
    ``(rows, cols)`` array or a row range of one) in row slabs of at most
    :data:`~repro.state.slabs.SLAB_BYTES`, across the slab workers
    (:func:`~repro.state.slabs.run_slabs`): each slab runs subtract,
    ``hypot``, the colocated mask, ``maximum`` and ``power`` with ``out=``
    on its own rows, then zeroes the masked entries.  Each running slab
    holds one y-difference plane and one bool plane of its own size as
    scratch.  Returns ``out``.
    """
    cols = out.shape[1]

    def fill(lo: int, hi: int) -> None:
        dy = np.empty((hi - lo, cols))
        colocated = np.empty(dy.shape, dtype=bool)
        _attenuation_into(out[lo:hi], dy, colocated, xy_rows[lo:hi], xy_cols, alpha)

    run_slabs(fill, slab_bounds(out.shape[0], 8 * cols))
    return out


def _attenuation_into(
    att: FloatArray,
    dy: FloatArray,
    colocated: np.ndarray,
    xy_rows: FloatArray,
    xy_cols: FloatArray,
    alpha: float,
) -> None:
    """The attenuation rectangle into ``att``, with ``dy``/``colocated`` as scratch.

    ``att`` first holds the x differences, then the distances, then the
    attenuation: the elementwise operations of :func:`pairwise_distances`
    and :func:`attenuation_from_distances`, in their order.
    """
    np.subtract.outer(xy_rows[:, 0], xy_cols[:, 0], out=att)
    np.subtract.outer(xy_rows[:, 1], xy_cols[:, 1], out=dy)
    np.hypot(att, dy, out=att)
    np.less_equal(att, 0.0, out=colocated)
    np.maximum(att, 1e-300, out=att)
    np.power(att, alpha, out=att)
    np.copyto(att, 0.0, where=colocated)


def first_positions(values: np.ndarray) -> np.ndarray:
    """Positions of the first appearance of each distinct entry, ascending.

    Sort-and-compare on a stable argsort (``np.unique`` would import
    ``numpy.ma``): the first of each run of equal values is its earliest.
    """
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    first = np.ones(values.shape[0], dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return np.sort(order[first])
