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
from .kernels import (
    attenuation_from_distances,
    attenuation_rect_from_xy,
    distance_rect_from_xy,
    pairwise_distances,
)
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

    __slots__ = ("cursor", "pos_of", "rows", "slot_at", "used", "version")

    def __init__(self, max_rows: int, capacity: int) -> None:
        self.rows = np.empty((max_rows, capacity), dtype=float)
        self.slot_at = np.full(max_rows, -1, dtype=np.intp)
        self.pos_of: dict[int, int] = {}
        self.cursor = 0
        self.used = 0
        self.version = -1

    def reset(self, version: int) -> None:
        self.pos_of.clear()
        self.slot_at.fill(-1)
        self.cursor = 0
        self.used = 0
        self.version = version

    @property
    def resident_bytes(self) -> int:
        row_bytes = int(self.rows.shape[1]) * 8
        return self.used * row_bytes + int(self.slot_at.nbytes)


class TiledNetworkState(NetworkState):
    """Exact O(n) geometry store: rectangles from coordinates, no O(n^2) matrices.

    Drop-in for :class:`NetworkState` behind every consumer that dispatches
    on :attr:`materializes_matrices` (the caches, the channel, the fabric);
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
        self._init_tiled(budget_bytes)

    def _init_tiled(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self._budget_bytes = int(budget_bytes)
        self._row_caches: dict[float, _RowCache] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        xy: np.ndarray,
        ids: np.ndarray,
        *,
        distances: np.ndarray | None = None,
        attenuation: dict[float, np.ndarray] | None = None,
        budget_bytes: int = DEFAULT_TILE_BUDGET_BYTES,
    ) -> "TiledNetworkState":
        """Adopt coordinate/id arrays as a read-only tiled view (fabric attach).

        The tiled store never holds dense matrices, so pre-materialized
        ``distances``/``attenuation`` blocks are rejected rather than
        silently adopted - the exporter should not have produced them for a
        tiled state.
        """
        if distances is not None or attenuation:
            raise ValueError(
                "TiledNetworkState adopts coordinates only; dense matrix "
                "blocks have no tiled counterpart"
            )
        state = super().from_arrays(xy, ids)
        assert isinstance(state, TiledNetworkState)
        state._init_tiled(budget_bytes)
        return state

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

        This is the decode hot path's ``cols=None`` gather.  Cached rows are
        computed by exactly the kernels the dense store patches with
        (``attenuation_from_distances(pairwise_distances(...))``), so the
        result is bitwise equal to ``np.take`` on a dense attenuation
        matrix.  The cache holds at most ``(budget_bytes / 2) / (capacity *
        8)`` rows per exponent; requests larger than that are computed
        fresh (still exact, just uncached).  Any state mutation invalidates
        the cache wholesale - rows are cheap to recompute and a stale row
        can never be served.
        """
        alpha = float(alpha)
        row_slots = np.asarray(row_slots, dtype=np.intp)
        k = int(row_slots.shape[0])
        max_rows = max(1, (self._budget_bytes // 2) // max(1, self._capacity * 8))
        cache = self._row_caches.get(alpha)
        if cache is None or cache.rows.shape != (max_rows, self._capacity):
            cache = _RowCache(max_rows, self._capacity)
            self._row_caches[alpha] = cache
        if cache.version != self.version:
            cache.reset(self.version)
        if k > max_rows:
            # The request alone exceeds the row budget: serve it uncached.
            return attenuation_rect_from_xy(self._xy[row_slots], self._xy, alpha, workspace, key)
        requested = [int(slot) for slot in row_slots.tolist()]
        needed = set(requested)
        missing = [slot for slot in dict.fromkeys(requested) if slot not in cache.pos_of]
        if missing:
            miss = np.asarray(missing, dtype=np.intp)
            fresh = attenuation_from_distances(pairwise_distances(self._xy[miss], self._xy), alpha)
            for offset, slot in enumerate(missing):
                pos = cache.cursor
                # FIFO eviction, skipping rows the current request also needs.
                while True:
                    holder = int(cache.slot_at[pos])
                    if holder < 0 or holder not in needed:
                        break
                    pos = (pos + 1) % max_rows
                evicted = int(cache.slot_at[pos])
                if evicted >= 0:
                    del cache.pos_of[evicted]
                else:
                    cache.used += 1
                cache.rows[pos] = fresh[offset]
                cache.slot_at[pos] = slot
                cache.pos_of[slot] = pos
                cache.cursor = (pos + 1) % max_rows
            if OBS.enabled:
                OBS.registry.inc("tiled.row_cache_miss", len(missing))
                OBS.registry.gauge("tiled.resident_bytes").set(float(self.resident_bytes()))
        positions = np.fromiter(
            (cache.pos_of[slot] for slot in requested), dtype=np.intp, count=k
        )
        if workspace is None:
            return cache.rows[positions]
        stage = workspace.floats(key, k, self._capacity)
        np.take(cache.rows, positions, axis=0, out=stage)
        return stage

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
