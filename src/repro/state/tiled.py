"""Exact O(n) geometry store for universes too large for the dense matrices.

:class:`TiledNetworkState` is the sparse sibling of
:class:`~repro.state.NetworkState`, which
:meth:`~repro.state.NetworkState.for_nodes` picks once a universe's dense
matrices would exceed :data:`~repro.state.network.DENSE_BUDGET_BYTES`.  It
never materializes the ``(capacity, capacity)`` distance/attenuation/fade
matrices; it keeps

* the same capacity-managed coordinate/id arrays and free-list slots as the
  dense store (it *is* a ``NetworkState`` - membership, growth, ids, churn
  bookkeeping are all inherited), and
* a budget-bounded FIFO **row cache** of attenuation rows per path-loss
  exponent, serving the whole-row gathers of the decode hot path.

Everything it serves is **exact**: rectangles and cached rows are computed
from coordinates by the same kernels the dense store patches its matrices
with, so they are bitwise equal to a dense gather and the store choice never
changes a result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .._types import FloatArray, IntpArray
from ..obs.runtime import OBS
from .kernels import attenuation_rect_from_xy, distance_rect_from_xy, fill_attenuation_rows
from .network import NetworkState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from ..dynamics.gain import GainModel
    from ..geometry import Node
    from .scratch import DecodeWorkspace

__all__ = ["DEFAULT_TILE_BUDGET_BYTES", "TiledNetworkState"]

#: Default per-state byte budget of the attenuation row caches.
DEFAULT_TILE_BUDGET_BYTES = 256 * 1024 * 1024


class _RowCache:
    """FIFO cache of attenuation rows for one exponent (bounded row count)."""

    __slots__ = ("cursor", "row_of", "rows", "slot_at", "used", "version")

    def __init__(self, max_rows: int, capacity: int) -> None:
        self.rows = np.empty((max_rows, capacity), dtype=float)
        # Cache row holding each slot (row -> slot and slot -> row), -1 = none.
        self.slot_at = np.full(max_rows, -1, dtype=np.intp)
        self.row_of = np.full(capacity, -1, dtype=np.intp)
        self.cursor = 0
        self.used = 0
        self.version = -1

    def reset(self, version: int) -> None:
        self.row_of.fill(-1)
        self.slot_at.fill(-1)
        self.cursor = 0
        self.used = 0
        self.version = version

    @property
    def resident_bytes(self) -> int:
        row_bytes = int(self.rows.shape[1]) * 8
        return self.used * row_bytes + int(self.slot_at.nbytes)

    def place(self, missing: IntpArray, request: IntpArray) -> IntpArray:
        """Assign ring rows to ``missing`` (distinct, uncached) and return them.

        One walk of the ring from ``cursor``: the first ``len(missing)`` rows
        that are empty or hold a slot ``request`` does not need, in ring
        order - the rows a FIFO placing one slot at a time would pick, since
        a row it has just filled is needed and so skipped.  Their holders
        are evicted and ``cursor`` moves past the last of them.  The ring
        always has enough such rows: a request within the row budget holds
        at most ``min(budget, capacity)`` distinct slots, the ring's size.
        """
        needed = np.zeros(self.row_of.shape[0], dtype=bool)
        needed[request] = True
        holders = self.slot_at
        # An empty row's -1 reads needed[-1]; its own test already passes it.
        free = np.flatnonzero((holders < 0) | ~needed[holders])
        start = int(np.searchsorted(free, self.cursor))
        rows = np.concatenate((free[start:], free[:start]))[: missing.shape[0]]
        evicted = holders[rows]
        evicted = evicted[evicted >= 0]
        self.row_of[evicted] = -1
        self.used += rows.shape[0] - evicted.shape[0]
        holders[rows] = missing
        self.row_of[missing] = rows
        self.cursor = (int(rows[-1]) + 1) % holders.shape[0]
        return rows


def _first_appearances(slots: IntpArray) -> IntpArray:
    """Distinct entries of ``slots`` in order of first appearance.

    Sort-and-compare on a stable argsort (``np.unique`` would import
    ``numpy.ma``): the first of each run of equal values is its earliest.
    """
    order = np.argsort(slots, kind="stable")
    ranked = slots[order]
    first = np.ones(slots.shape[0], dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return slots[np.sort(order[first])]


class TiledNetworkState(NetworkState):
    """Exact O(n) geometry store: rectangles from coordinates, no O(n^2) matrices.

    Drop-in for :class:`NetworkState` behind every consumer that dispatches
    on :attr:`materializes_matrices` (the caches and the channel);
    the whole-matrix accessors raise instead of allocating quadratically.

    Args:
        nodes: initial node universe (same as the dense store).
        capacity: pre-reserved slots (same as the dense store).
        budget_bytes: byte budget of the attenuation row caches; half of it
            is available per path-loss exponent.
    """

    materializes_matrices: bool = False

    def __init__(
        self,
        nodes: "Iterable[Node]" = (),
        *,
        capacity: int | None = None,
        budget_bytes: int = DEFAULT_TILE_BUDGET_BYTES,
    ) -> None:
        super().__init__(nodes, capacity=capacity)
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self._budget_bytes = int(budget_bytes)
        self._row_caches: dict[float, _RowCache] = {}

    # -- reporting -------------------------------------------------------------

    @property
    def budget_bytes(self) -> int:
        """Byte budget of the attenuation row caches."""
        return self._budget_bytes

    def resident_bytes(self) -> int:
        """Bytes currently held by the attenuation row caches.

        This is what the ``budget_bytes`` contract is checked against; the
        inherited O(n) coordinate/id arrays are excluded (they exist in any
        store).
        """
        return sum(cache.resident_bytes for cache in self._row_caches.values())

    # -- exact rectangles (the dense-gather replacements) ----------------------

    def distance_rect(
        self,
        row_slots: IntpArray,
        col_slots: IntpArray,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "tiled.dist",
    ) -> FloatArray:
        """Exact distance rectangle - bitwise equal to a dense matrix gather."""
        return distance_rect_from_xy(self._xy[row_slots], self._xy[col_slots], workspace, key)

    def attenuation_rect(
        self,
        alpha: float,
        row_slots: IntpArray,
        col_slots: IntpArray,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "tiled.att",
    ) -> FloatArray:
        """Exact attenuation rectangle - bitwise equal to a dense matrix gather."""
        return attenuation_rect_from_xy(
            self._xy[row_slots], self._xy[col_slots], alpha, workspace, key
        )

    def fade_rect(
        self,
        model: "GainModel",
        row_slots: IntpArray,
        col_slots: IntpArray | None,
    ) -> FloatArray | None:
        """Fade rectangle of a slot-invariant gain model (pure id-pair hash).

        ``col_slots=None`` means all capacity columns, mirroring the dense
        fade-matrix row layout.  Exact by construction: the model's fade is
        an elementwise function of the id pair, so computing the subset
        equals gathering it.
        """
        if not getattr(model, "slot_invariant", False):
            raise ValueError(f"{model!r} is slot-dependent; its fades cannot be cached")
        cols = self._ids if col_slots is None else self._ids[col_slots]
        return model.fade(self._ids[row_slots], cols, None)

    def attenuation_rows(
        self,
        alpha: float,
        row_slots: IntpArray,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "tiled.rows",
    ) -> FloatArray:
        """Whole attenuation rows (capacity columns) through the FIFO row cache.

        This is the ``cols=None`` gather of the decode paths that take one
        block: ``rows[positions]`` over :meth:`row_source`, so it is bitwise
        equal to ``np.take`` on a dense attenuation matrix.  An over-budget
        request with a workspace is filled straight into the workspace's
        stage.  Without a workspace the result is a fresh array the caller
        owns (the decode divides into it).
        """
        alpha = float(alpha)
        row_slots = np.asarray(row_slots, dtype=np.intp)
        k = int(row_slots.shape[0])
        if workspace is not None and k > self._budget_rows():
            stage = workspace.floats(key, k, self._capacity)
            return fill_attenuation_rows(stage, self._xy[row_slots], self._xy, alpha)
        rows, positions = self.row_source(alpha, row_slots)
        if positions is None:
            return rows
        if workspace is None:
            return rows[positions]
        stage = workspace.floats(key, k, self._capacity)
        np.take(rows, positions, axis=0, out=stage)
        return stage

    def _budget_rows(self) -> int:
        return max(1, (self._budget_bytes // 2) // max(1, self._capacity * 8))

    def row_source(
        self, alpha: float, row_slots: IntpArray
    ) -> tuple[FloatArray, IntpArray | None]:
        """Attenuation rows of ``row_slots`` as ``(rows, positions)``.

        ``rows[positions]`` (``rows`` itself when ``positions`` is ``None``)
        holds, per requested slot, its whole attenuation row over the
        capacity columns: the floats of
        ``attenuation_from_distances(pairwise_distances(...))``.  Within the
        row budget, ``(budget_bytes / 2) / (capacity * 8)`` rows per
        exponent and never more than ``capacity`` of them, ``rows`` is the
        exponent's FIFO ring, which the caller only reads; a larger request
        is filled into a fresh uncached array with ``positions`` ``None``.

        A miss costs no per-row Python work: the missing slots (once each,
        in order of first appearance) get their ring rows by one mask
        (:meth:`_RowCache.place`), and the rows are computed straight into
        the ring, one contiguous run of ring rows at a time, by
        :func:`~repro.state.kernels.fill_attenuation_rows`, in row slabs
        across the slab workers.  Any state mutation invalidates the cache
        wholesale - rows are cheap to recompute and a stale row can never
        be served.
        """
        alpha = float(alpha)
        row_slots = np.asarray(row_slots, dtype=np.intp)
        capacity = self._capacity
        budget_rows = self._budget_rows()
        if row_slots.shape[0] > budget_rows:
            # The request alone exceeds the row budget: serve it uncached.
            out = np.empty((row_slots.shape[0], capacity))
            return fill_attenuation_rows(out, self._xy[row_slots], self._xy, alpha), None
        # A ring of ``capacity`` rows already holds every slot, so a larger
        # one would only reserve memory; the misses are the same.
        max_rows = max(1, min(capacity, budget_rows))
        cache = self._row_caches.get(alpha)
        if cache is None or cache.rows.shape != (max_rows, capacity):
            cache = _RowCache(max_rows, capacity)
            self._row_caches[alpha] = cache
        if cache.version != self.version:
            cache.reset(self.version)
        positions = cache.row_of[row_slots]
        absent = positions < 0
        if absent.any():
            missing = _first_appearances(row_slots[absent])
            placed = cache.place(missing, row_slots)
            # Fill run by run of consecutive ring rows, straight into the ring.
            order = np.argsort(placed)
            placed, missing = placed[order], missing[order]
            cuts = (np.flatnonzero(np.diff(placed) != 1) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, placed.shape[0]]):
                first = int(placed[lo])
                fill_attenuation_rows(
                    cache.rows[first : first + hi - lo], self._xy[missing[lo:hi]], self._xy, alpha
                )
            positions = cache.row_of[row_slots]
            if OBS.enabled:
                OBS.registry.inc("tiled.row_cache_miss", int(missing.shape[0]))
                OBS.registry.gauge("tiled.resident_bytes").set(float(self.resident_bytes()))
        return cache.rows, positions

    # -- dense accessors (refused) ---------------------------------------------

    def distance_matrix(self) -> np.ndarray:
        raise RuntimeError(
            "TiledNetworkState does not materialize the O(n^2) distance "
            "matrix; use distance_rect()/attenuation_rows()"
        )

    def attenuation_matrix(self, alpha: float) -> np.ndarray:
        raise RuntimeError(
            "TiledNetworkState does not materialize the O(n^2) attenuation "
            "matrix; use attenuation_rect()/attenuation_rows()"
        )

    def fade_matrix(self, model: "GainModel") -> np.ndarray | None:
        raise RuntimeError(
            "TiledNetworkState does not materialize the O(n^2) fade matrix; "
            "use fade_rect()"
        )

    # -- churn ----------------------------------------------------------------

    def _patch_geometry(self, slots: np.ndarray) -> None:
        # Nothing quadratic to patch: the row caches are versioned snapshots
        # that rebuild lazily against the new coordinates.  cells_patched
        # stays honest at zero matrix cells.
        return

    def _patch_fades(self, slots: np.ndarray) -> None:
        # No fade matrices exist (fade_matrix raises); fade_rect hashes
        # id pairs on demand.
        return
