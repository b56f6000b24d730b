"""The dense view of a node universe over a shared geometry store.

:class:`NodeArrayCache` is what the cached SINR channel
(``repro.sinr.channel.CachedChannel``) decodes through: an array of live
slots of one :class:`~repro.state.NetworkState`, which owns the
distance/attenuation/fade matrices and answers, dense or tiled, exactly the
rectangles a slot decode asks for.  Churn is an O(n) re-slot of the view
while the store patches only the damaged rows.  Links over a store are
:class:`~repro.sinr.PositionedLinks`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..geometry import Node
from ..state import DecodeWorkspace, NetworkState
from ..state.network import _freeze

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dynamics uses sinr)
    from ..dynamics.gain import GainModel

__all__ = ["NodeArrayCache"]


class NodeArrayCache:
    """Dense view of a node universe over a shared :class:`NetworkState`.

    The view maps its dense indices ``0..n-1`` (the indexing every slot
    engine and channel uses) to live slots of the backing state, which owns
    the O(n^2) distance/attenuation/fade matrices.  Whole-universe matrices
    are served as zero-copy basic slices while the view is *contiguous*
    (slots ``0..n-1``, the static common case) and as cached gathers
    otherwise; the slot-decode hot paths use the block accessors, which ask
    the state, dense or tiled, for exactly the requested rectangle.

    Membership changes flow through :meth:`add_nodes`/:meth:`remove_ids`/
    :meth:`sync`: the state patches only the damaged rows (O(k * capacity))
    and the view re-slots itself in O(n) - sustained churn never pays an
    O(n^2) rebuild per event.

    Args:
        nodes: the node universe, in dense-index order.  When ``state`` is
            given they must already be live in it; when omitted together
            with ``state``, the view covers the state's live nodes in
            insertion order.
        state: an existing :class:`~repro.state.NetworkState` to view,
            shared with other caches/channels; when omitted, a private one
            is created from ``nodes`` by :meth:`NetworkState.for_nodes`,
            which picks the store by size.
    """

    def __init__(
        self,
        nodes: Iterable[Node] | None = None,
        *,
        state: NetworkState | None = None,
    ) -> None:
        if state is None:
            state = NetworkState.for_nodes(() if nodes is None else nodes)
            nodes = None
        self._state = state
        if nodes is None:
            slots = state.live_slots()
        else:
            try:
                slots = np.array(
                    [state.slot_of_id(node.id) for node in nodes], dtype=np.intp
                )
            except KeyError as exc:
                raise ValueError(
                    f"node {exc.args[0]!r} is not in the shared NetworkState"
                ) from exc
        self._set_slots(slots)

    def _set_slots(self, slots: np.ndarray) -> None:
        """(Re)anchor the view: dense index ``k`` maps to state slot ``slots[k]``."""
        self._slots = _freeze(np.asarray(slots, dtype=np.intp).copy())
        self.ids = _freeze(self._state.ids[self._slots].astype(np.int64))
        # Built on the first id lookup: most views are only read by index.
        self._index_by_id: dict[int, int] | None = None
        self._contiguous = bool(
            np.array_equal(self._slots, np.arange(self._slots.size, dtype=np.intp))
        )
        # View-level caches of whole-universe structures: (base-or-version,
        # matrix) entries resolved by _dense_view.
        self._xy_entry: tuple | None = None
        self._dense_entries: dict[object, tuple] = {}

    # -- membership ----------------------------------------------------------

    @property
    def state(self) -> NetworkState:
        """The geometry/gain store backing this view."""
        return self._state

    @property
    def contiguous(self) -> bool:
        """Whether dense index ``k`` is state slot ``k`` for every ``k``."""
        return self._contiguous

    @property
    def slots(self) -> np.ndarray:
        """State slot of each dense index."""
        return self._slots

    @property
    def nodes(self) -> list[Node]:
        """The node universe, in dense-index order (current positions)."""
        return [self._state.node_at(slot) for slot in self._slots.tolist()]

    def __len__(self) -> int:
        return self._slots.size

    def _id_index(self) -> dict[int, int]:
        if self._index_by_id is None:
            self._index_by_id = {node_id: k for k, node_id in enumerate(self.ids.tolist())}
        return self._index_by_id

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._id_index()

    def index_of_id(self, node_id: int) -> int:
        """Universe index of the node with the given id (KeyError if absent)."""
        return self._id_index()[node_id]

    def add_nodes(self, nodes: Iterable[Node]) -> np.ndarray:
        """Add brand-new nodes to the shared state and append them to the view.

        The state patches only the new rows/columns (O(k * capacity),
        amortized growth included); the view extends its slot map.  Returns
        the assigned state slots.
        """
        slots = self._state.add_nodes(nodes)
        if slots.size:
            self._set_slots(np.concatenate([self._slots, slots]))
        return slots

    def remove_ids(self, node_ids: Iterable[int]) -> None:
        """Remove nodes from the shared state and drop them from the view (O(n))."""
        id_list = [int(node_id) for node_id in node_ids]
        if not id_list:
            return
        self._state.remove_nodes(id_list)
        keep = ~np.isin(self.ids, np.array(id_list, dtype=np.int64))
        self._set_slots(self._slots[keep])

    def sync(self, nodes: Iterable[Node]) -> None:
        """Re-anchor the view to ``nodes`` (all must be live in the state).

        Used after a churn event applied directly to the state (e.g. by
        ``TreeRepairer.integrate``): the view adopts the given dense order -
        typically the repaired tree's node order - in O(n) bookkeeping.
        """
        self._set_slots(
            np.array([self._state.slot_of_id(node.id) for node in nodes], dtype=np.intp)
        )

    # -- whole-universe structures -------------------------------------------

    @property
    def xy(self) -> np.ndarray:
        """``(n, 2)`` coordinates in dense order (always current)."""
        base = self._state.xy
        entry = self._xy_entry
        if self._contiguous:
            # A basic slice stays valid across in-place patches; only a
            # capacity growth (new base array) invalidates it.
            if entry is None or entry[0] is not base:
                entry = (base, base[: self._slots.size])
                self._xy_entry = entry
        else:
            if entry is None or entry[0] != self._state.version:
                entry = (self._state.version, _freeze(base[self._slots]))
                self._xy_entry = entry
        return entry[1]

    def _dense_view(self, key: object, base: np.ndarray) -> np.ndarray:
        """Whole-universe (n, n) slice of a capacity-sized state matrix.

        Contiguous views are zero-copy basic slices (valid across in-place
        patches); non-contiguous views are gathered copies refreshed when
        the state's version moves.
        """
        n = self._slots.size
        entry = self._dense_entries.get(key)
        if self._contiguous:
            if entry is None or entry[0] is not base:
                entry = (base, base[:n, :n])
                self._dense_entries[key] = entry
        else:
            if entry is None or entry[0] != self._state.version:
                entry = (
                    self._state.version,
                    _freeze(base[np.ix_(self._slots, self._slots)]),
                )
                self._dense_entries[key] = entry
        return entry[1]

    def distance_matrix(self) -> np.ndarray:
        """Full node-to-node distance matrix, in dense order."""
        return self._dense_view("dist", self._state.distance_matrix())

    def attenuation_matrix(self, alpha: float) -> np.ndarray:
        """Path-loss denominator ``max(d, 1e-300)**alpha``, in dense order.

        Entries with ``d <= 0`` are ``0.0`` (shared-kernel convention) so
        that dividing a positive power by the matrix yields ``inf`` there -
        exactly the ``np.where(dist <= 0, np.inf, ...)`` of the uncached
        decode.
        """
        return self._dense_view(("att", alpha), self._state.attenuation_matrix(alpha))

    def fade_matrix(self, model: "GainModel") -> np.ndarray | None:
        """Full-universe fade matrix of a *slot-invariant* gain model.

        Static fades (e.g. log-normal shadowing) are pure functions of node
        ids - positions never enter - so the state hashes the matrix once
        per model, patches only new rows under churn, and the view merely
        slices it.  ``None`` (unit gain) stays ``None``.
        """
        base = self._state.fade_matrix(model)
        if base is None:
            return None
        return self._dense_view(("fade", model), base)

    # -- block accessors (slot-decode hot paths) -----------------------------

    def _slot_rows_cols(
        self, rows: np.ndarray, cols: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """State slots of the view's ``rows`` and ``cols``.

        ``cols=None`` (the whole view) stays ``None`` on a contiguous view:
        the leading ``n`` columns of whole state rows are then the block.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if cols is not None:
            cols = np.asarray(cols, dtype=np.intp)
        if self._contiguous:
            return rows, cols
        return self._slots[rows], self._slots if cols is None else self._slots[cols]

    def attenuation_block(
        self,
        alpha: float,
        rows: np.ndarray,
        cols: np.ndarray | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> np.ndarray:
        """Attenuation rectangle ``rows x cols`` (``cols=None`` = whole view).

        One :meth:`~repro.state.NetworkState.attenuation_rect` call on the
        state's slots - O(|rows| * |cols|), no dense (n, n) copy even when
        the view is non-contiguous.  Either store gives the same floats.
        """
        r, c = self._slot_rows_cols(rows, cols)
        block = self._state.attenuation_rect(alpha, r, c, workspace=workspace, key="cache.att")
        return block if c is not None else block[:, : self._slots.size]

    def fade_block(
        self,
        model: "GainModel",
        rows: np.ndarray,
        cols: np.ndarray | None = None,
        *,
        workspace: DecodeWorkspace | None = None,
    ) -> np.ndarray | None:
        """Slot-invariant fade rectangle, or ``None`` for unit gain."""
        r, c = self._slot_rows_cols(rows, cols)
        block = self._state.fade_rect(model, r, c, workspace=workspace, key="cache.fade")
        return block if block is None or c is not None else block[:, : self._slots.size]

    # -- mutation ------------------------------------------------------------

    def update_positions(self, indices: np.ndarray, new_xy: np.ndarray) -> None:
        """Move a subset of nodes, patching the state matrices incrementally.

        The mobility models of ``repro.dynamics`` call this between slots:
        instead of rebuilding the O(n^2) distance and attenuation matrices
        from scratch, the state recomputes only the rows and columns of the
        ``k`` moved nodes - O(k * capacity) work per step, bit-for-bit
        identical to a full rebuild from the new coordinates (``hypot`` is
        sign-insensitive, so mirroring rows into columns is exact).  Node
        objects are refreshed in the state, so :attr:`nodes` always reflects
        the current positions.

        Args:
            indices: dense view indices of the nodes that moved.
            new_xy: their new coordinates, shape ``(len(indices), 2)``.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return
        self._state.move_nodes(self._slots[idx], new_xy)
