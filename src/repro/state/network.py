"""The capacity-managed geometry/gain store behind every cache.

A :class:`NetworkState` owns, for one node universe, the O(n^2) derived
structures that every layer above consults: the node-to-node distance
matrix, the ``d**alpha`` attenuation matrix per path-loss exponent, and one
fade matrix per slot-invariant gain model.  The arrays are *over-allocated*:
they are sized to a capacity that may exceed the current population, node
membership is tracked by a free-list of slots, and topology changes are
incremental:

* :meth:`add_nodes` assigns free slots (growing the arrays geometrically
  when capacity is exhausted) and patches only the new rows/columns -
  O(k * capacity) per event for ``k`` additions, amortized over growth.
* :meth:`remove_nodes` releases slots in O(k); stale matrix rows are never
  read again because consumers address the store by live slot index.
* :meth:`move_nodes` rewrites the k moved rows/columns, O(k * capacity).

Every patched matrix is **bit-for-bit equal** to a from-scratch rebuild at
the current membership/positions: the patches evaluate exactly the shared
kernels of :mod:`repro.state.kernels` (and the gain models' pure
per-id-pair hashes) on row blocks, and ``hypot`` is symmetric, so mirroring
a row block into the columns is exact.  The parity tests pin this across
random add/remove/move sequences, including capacity growth.

Consumers never index the capacity-sized arrays directly: they ask the
store for rectangles by slot (:meth:`NetworkState.distance_rect`,
``attenuation_rect``, ``fade_rect``, ``row_source``), which the tiled
sibling answers with the same floats, so no consumer asks which store it
holds.  The caches of ``repro.sinr.arrays`` are thin *views* holding an
array of live slots, so one state instance can back a node cache, a cached
channel and any number of link caches at once.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .._types import FloatArray, IntpArray
from ..contracts import hot_kernel
from ..geometry import Node, Point
from ..geometry.point import max_distance_xy
from .kernels import attenuation_from_distances, distance_rect_from_xy, pairwise_distances

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dynamics/links use state)
    from ..dynamics.gain import GainModel
    from ..links import Link
    from .scratch import DecodeWorkspace

__all__ = ["DENSE_BUDGET_BYTES", "NetworkState"]

#: Largest footprint of the dense store's distance matrix plus one
#: attenuation matrix (``16 * n**2`` bytes) for which
#: :meth:`NetworkState.for_nodes` picks the dense store: n <= 2048.  Larger
#: universes get the O(n) :class:`~repro.state.TiledNetworkState`, whose
#: decode rectangles are bitwise equal, so the choice never changes a result.
DENSE_BUDGET_BYTES = 64 * 1024 * 1024


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@hot_kernel()
def _take_block(
    base: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray | None,
    workspace: "DecodeWorkspace | None",
    key: str,
) -> np.ndarray:
    """``base[np.ix_(rows, cols)]`` (``cols=None``: whole rows), gathered into
    arena buffers when given.

    Whole rows are one row ``take``.  A rectangle is a flat-index ``np.take``
    into the arena, which copies exactly its cells - the values of the fancy
    ``np.ix_`` slice, bitwise - without staging whole base rows; the result
    is then a view into the arena.
    """
    if cols is None:
        if workspace is None:
            return base.take(rows, axis=0)
        stage = workspace.floats(key + ".rows", rows.size, base.shape[1])
        return np.take(base, rows, axis=0, out=stage)
    if workspace is None or not base.flags.c_contiguous:
        return base[np.ix_(rows, cols)]
    flat = workspace.ints(key + ".idx", rows.size, cols.size)
    np.multiply(rows[:, None], base.shape[1], out=flat)
    np.add(flat, cols[None, :], out=flat)
    block = workspace.floats(key + ".block", rows.size, cols.size)
    np.take(base.reshape(-1), flat, out=block)
    return block


def _link_endpoints(links: Iterable["Link"]) -> list[Node]:
    """Unique link endpoints by node id, sender before receiver, in link order."""
    endpoints: dict[int, Node] = {}
    for link in links:
        endpoints.setdefault(link.sender.id, link.sender)
        endpoints.setdefault(link.receiver.id, link.receiver)
    return list(endpoints.values())


class NetworkState:
    """Over-allocated position/distance/attenuation/fade store with O(damage) churn.

    Args:
        nodes: initial node universe; each occupies one slot, in order.
        capacity: number of slots to allocate up front (default: exactly
            ``len(nodes)``, so static workloads carry zero overhead; churny
            callers can pre-reserve headroom to defer the first growth).
    """

    #: Whether whole derived matrices exist to be gathered from.  Only the
    #: stores read it (:meth:`subset`); consumers ask for rectangles.
    materializes_matrices: bool = True

    def __init__(self, nodes: Iterable[Node] = (), *, capacity: int | None = None) -> None:
        node_list = list(nodes)
        n = len(node_list)
        cap = n if capacity is None else int(capacity)
        if cap < n:
            raise ValueError(f"capacity {cap} is below the initial population {n}")
        ids = [node.id for node in node_list]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate node ids in the initial universe")
        xy = np.zeros((cap, 2), dtype=float)
        id_array = np.full(cap, -1, dtype=np.int64)
        if n:
            xy[:n] = [[node.x, node.y] for node in node_list]
            id_array[:n] = ids
        self._hold(xy, id_array, node_list)

    def _hold(self, xy: np.ndarray, ids: np.ndarray, nodes: list[Node]) -> None:
        """Take ``xy`` and ``ids`` (one row per slot, the first ``len(nodes)``
        holding ``nodes`` in order, the rest free) as this store's arrays,
        with no derived matrix built yet."""
        n = len(nodes)
        cap = ids.shape[0]
        self._capacity = cap
        self._xy = _freeze(xy)
        self._ids = _freeze(ids)
        self._nodes: list[Node | None] = [*nodes, *[None] * (cap - n)]
        self._slot_by_id: dict[int, int] = {node.id: slot for slot, node in enumerate(nodes)}
        # An ascending list is a heap already.
        self._free: list[int] = list(range(n, cap))
        self._distances: np.ndarray | None = None
        self._attenuation: dict[float, np.ndarray] = {}
        self._fades: dict[object, np.ndarray | None] = {}
        #: Bumped on every mutation; views use it to refresh gathered copies.
        self.version = 0
        #: Cumulative count of derived-matrix cells rewritten incrementally
        #: (the "patch cost"); a full rebuild would have cost capacity**2
        #: cells per materialized matrix per event.
        self.cells_patched = 0

    @classmethod
    def from_links(cls, links: Iterable["Link"], *, capacity: int | None = None) -> "NetworkState":
        """State over the unique endpoints of a link collection.

        Endpoints are deduplicated by node id in first-appearance order
        (sender before receiver, per link).
        """
        return cls(_link_endpoints(links), capacity=capacity)

    @staticmethod
    def for_nodes(nodes: Iterable[Node]) -> "NetworkState":
        """The geometry store for a node universe, chosen by its size.

        Dense while its distance matrix plus one attenuation matrix fit in
        :data:`DENSE_BUDGET_BYTES`, tiled above.  This is the one place that
        decides between the two stores by size.  The exception are callers
        that decode explicit sender x receiver rectangles only (the schedule
        replays of ``repro.netsim.aggregation`` and mean-power sampling of
        ``Link`` candidates): they build a
        :class:`~repro.state.TiledNetworkState` at any size, which computes
        those rectangles from coordinates without first building the n x n
        matrices.
        """
        node_list = list(nodes)
        return NetworkState._store_type(len(node_list))(node_list)

    @staticmethod
    def _store_type(n: int) -> type["NetworkState"]:
        """The store class :meth:`for_nodes` picks for ``n`` nodes."""
        if 16 * n**2 <= DENSE_BUDGET_BYTES:
            return NetworkState
        from .tiled import TiledNetworkState  # the subclass imports this module

        return TiledNetworkState

    @staticmethod
    def for_links(links: Iterable["Link"]) -> "NetworkState":
        """:meth:`for_nodes` over the unique endpoints of a link collection."""
        return NetworkState.for_nodes(_link_endpoints(links))

    def subset(self, slots: np.ndarray) -> "NetworkState":
        """The store for the live nodes at ``slots``, in that order.

        The result is a fresh store of the kind :meth:`for_nodes` picks,
        whose slot ``k`` holds the node at ``slots[k]``.  When both stores
        are dense, every matrix this store has materialized is gathered (a
        row ``take``, then a column one, by blocks of rows) instead of
        recomputed: the same floats a fresh store would derive, without the
        pairwise work.  Callers that shrink a population step by step chain
        these, so each step pays one gather.

        Raises:
            ValueError: if a slot is out of range or free, or appears twice.
        """
        slots = np.asarray(slots, dtype=np.intp)
        if slots.size and not (0 <= slots.min() and slots.max() < self._capacity):
            raise ValueError("slots must lie in this store's capacity")
        nodes = [self._nodes[slot] for slot in slots.tolist()]
        free = [slot for slot, node in zip(slots.tolist(), nodes) if node is None]
        if free:
            raise ValueError(f"slot {free[0]} is free")
        if np.count_nonzero(np.bincount(slots, minlength=1) > 1):
            raise ValueError("duplicate slots in the subset")
        sub = NetworkState._store_type(slots.size)()
        sub._hold(self._xy[slots], self._ids[slots], nodes)  # type: ignore[arg-type]
        if self._distances is not None and sub.materializes_matrices:

            def gather(matrix: np.ndarray) -> np.ndarray:
                # Blocks of rows of about 32 KB, each taken into the result
                # column by column, so no k x capacity copy is staged; the
                # slots are in range, so "clip" only skips take's buffering
                # of ``out``.
                out = np.empty((slots.size, slots.size), dtype=matrix.dtype)
                step = max(1, 4096 // matrix.shape[1])
                for lo in range(0, slots.size, step):
                    rows = matrix.take(slots[lo : lo + step], axis=0)
                    rows.take(slots, axis=1, out=out[lo : lo + step], mode="clip")
                return _freeze(out)

            sub._distances = gather(self._distances)
            sub._attenuation = {alpha: gather(att) for alpha, att in self._attenuation.items()}
            sub._fades = {
                model: None if fade is None else gather(fade)
                for model, fade in self._fades.items()
            }
        return sub

    def max_distance(self) -> float:
        """Largest distance between two live nodes (``0.0`` for fewer than two).

        :func:`~repro.geometry.point.max_distance_xy` over the live nodes'
        coordinates, the one diameter kernel (what
        :func:`~repro.geometry.diameter` computes): the same ``hypot`` values
        as the distance matrix's maximum, in O(n) memory, on either store.
        """
        return max_distance_xy(self._xy[self.live_slots()])

    # -- membership ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Number of allocated slots (live + free)."""
        return self._capacity

    def __len__(self) -> int:
        """Number of live nodes."""
        return len(self._slot_by_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slot_by_id

    def __iter__(self) -> Iterator[Node]:
        """Iterate the live nodes in insertion order."""
        for slot in self._slot_by_id.values():
            node = self._nodes[slot]
            assert node is not None
            yield node

    def slot_of_id(self, node_id: int) -> int:
        """Slot of the live node with the given id (KeyError if absent)."""
        return self._slot_by_id[node_id]

    def live_slots(self) -> np.ndarray:
        """Slots of the live nodes, in insertion order."""
        return np.fromiter(self._slot_by_id.values(), dtype=np.intp, count=len(self._slot_by_id))

    def node_at(self, slot: int) -> Node:
        """The live node occupying ``slot`` (ValueError if the slot is free)."""
        node = self._nodes[slot]
        if node is None:
            raise ValueError(f"slot {slot} is free")
        return node

    @property
    def xy(self) -> np.ndarray:
        """Capacity-sized coordinate array (free slots hold stale values)."""
        return self._xy

    @property
    def ids(self) -> np.ndarray:
        """Capacity-sized id array (``-1`` marks a free slot)."""
        return self._ids

    # -- mutation ------------------------------------------------------------

    def add_nodes(self, nodes: Iterable[Node]) -> np.ndarray:
        """Insert nodes into free slots, patching derived rows incrementally.

        Grows the arrays (geometrically, so growth is amortized) when the
        free-list is exhausted.  Costs O(k * capacity) matrix work for ``k``
        insertions - the new rows and their mirrored columns - on top of the
        amortized growth copy.

        Returns:
            The slots assigned to the nodes, in argument order.
        """
        node_list = list(nodes)
        if not node_list:
            return np.empty(0, dtype=np.intp)
        fresh = [node.id for node in node_list]
        if len(fresh) != len(set(fresh)):
            raise ValueError("duplicate node ids among the additions")
        clashes = [node_id for node_id in fresh if node_id in self._slot_by_id]
        if clashes:
            raise ValueError(f"node ids already present: {clashes[:5]}")
        if len(self._free) < len(node_list):
            self._grow(len(self._slot_by_id) + len(node_list))
        slots = np.array(
            [heapq.heappop(self._free) for _ in node_list], dtype=np.intp
        )
        self._xy.flags.writeable = True
        self._ids.flags.writeable = True
        for slot, node in zip(slots.tolist(), node_list):
            self._xy[slot] = (node.x, node.y)
            self._ids[slot] = node.id
            self._nodes[slot] = node
            self._slot_by_id[node.id] = slot
        self._xy.flags.writeable = False
        self._ids.flags.writeable = False
        self._patch_geometry(slots)
        self._patch_fades(slots)
        self.version += 1
        return slots

    def remove_nodes(self, node_ids: Iterable[int]) -> np.ndarray:
        """Release the slots of the given node ids - O(k), no matrix work.

        The freed rows/columns keep their stale values; they are never read
        again because every consumer addresses the store by live slot.

        Returns:
            The freed slots, in argument order.
        """
        id_list = [int(node_id) for node_id in node_ids]
        if not id_list:
            return np.empty(0, dtype=np.intp)
        missing = [node_id for node_id in id_list if node_id not in self._slot_by_id]
        if missing:
            raise KeyError(f"node ids not present: {missing[:5]}")
        slots = np.array([self._slot_by_id[node_id] for node_id in id_list], dtype=np.intp)
        self._ids.flags.writeable = True
        for slot, node_id in zip(slots.tolist(), id_list):
            del self._slot_by_id[node_id]
            self._ids[slot] = -1
            self._nodes[slot] = None
            heapq.heappush(self._free, slot)
        self._ids.flags.writeable = False
        self.version += 1
        return slots

    def move_nodes(self, slots: np.ndarray, new_xy: np.ndarray) -> None:
        """Move live nodes to new coordinates, patching rows/columns in O(k * capacity)."""
        idx = np.asarray(slots, dtype=np.intp)
        if idx.size == 0:
            return
        coords = np.asarray(new_xy, dtype=float).reshape(idx.size, 2)
        # Validate before mutating anything, so a bad slot can never leave
        # the coordinates out of sync with the materialized matrices.
        free = [slot for slot in idx.tolist() if self._nodes[slot] is None]
        if free:
            raise ValueError(f"slots are free: {free[:5]}")
        self._xy.flags.writeable = True
        self._xy[idx] = coords
        self._xy.flags.writeable = False
        for slot, (x, y) in zip(idx.tolist(), coords.tolist()):
            node = self._nodes[slot]
            self._nodes[slot] = Node(id=node.id, position=Point(x, y))
        self._patch_geometry(idx)
        self.version += 1

    # -- derived stores ------------------------------------------------------

    @property
    def has_distances(self) -> bool:
        """Whether the distance matrix has been materialized."""
        return self._distances is not None

    def distance_matrix(self) -> np.ndarray:
        """Capacity-sized node-to-node distance matrix (lazy, then patched)."""
        if self._distances is None:
            self._distances = _freeze(pairwise_distances(self._xy))
        return self._distances

    def attenuation_matrix(self, alpha: float) -> np.ndarray:
        """Capacity-sized ``d**alpha`` denominator per exponent (lazy, then patched).

        Uses the shared kernel convention: colocated pairs are ``0.0`` so a
        power divided by the matrix is ``inf`` there.
        """
        att = self._attenuation.get(alpha)
        if att is None:
            att = _freeze(attenuation_from_distances(self.distance_matrix(), alpha))
            self._attenuation[alpha] = att
        return att

    def fade_matrix(self, model: "GainModel") -> np.ndarray | None:
        """Capacity-sized fade matrix of a slot-invariant gain model (lazy, patched).

        Fades are pure functions of node ids, so additions patch the new
        rows/columns with the same elementwise hash a rebuild would run;
        positions never enter, so moves leave fades untouched.  ``None``
        (unit gain everywhere) is cached as such.
        """
        if not getattr(model, "slot_invariant", False):
            raise ValueError(f"{model!r} is slot-dependent; its fades cannot be cached")
        if model not in self._fades:
            fade = model.fade(self._ids, self._ids, None)
            self._fades[model] = None if fade is None else _freeze(fade)
        return self._fades[model]

    # -- rectangles (what every consumer reads) -------------------------------
    #
    # Both stores answer with the same floats.  ``col_slots=None`` means
    # whole rows (all capacity columns).  With a workspace a result may be a
    # view into its arena, valid until the next call through the same ``key``.

    def distance_rect(
        self,
        row_slots: IntpArray,
        col_slots: IntpArray,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "state.dist",
    ) -> FloatArray:
        """Distances from the ``row_slots`` nodes to the ``col_slots`` nodes.

        Gathered from the distance matrix once it is materialized; until
        then computed from the coordinates, so a rectangle never builds the
        ``(capacity, capacity)`` matrix.
        """
        if self._distances is None:
            return distance_rect_from_xy(self._xy[row_slots], self._xy[col_slots], workspace, key)
        return _take_block(self._distances, row_slots, col_slots, workspace, key)

    def attenuation_rect(
        self,
        alpha: float,
        row_slots: IntpArray,
        col_slots: IntpArray | None,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "state.att",
    ) -> FloatArray:
        """``d**alpha`` of the ``row_slots`` x ``col_slots`` pairs (colocated 0).

        A gather from :meth:`attenuation_matrix`; without a workspace the
        result is a fresh array the caller owns.
        """
        return _take_block(self.attenuation_matrix(alpha), row_slots, col_slots, workspace, key)

    def fade_rect(
        self,
        model: "GainModel",
        row_slots: IntpArray,
        col_slots: IntpArray | None,
        *,
        workspace: "DecodeWorkspace | None" = None,
        key: str = "state.fade",
    ) -> FloatArray | None:
        """Fades of a slot-invariant gain model on the pairs, ``None`` for unit gain."""
        fade = self.fade_matrix(model)
        return None if fade is None else _take_block(fade, row_slots, col_slots, workspace, key)

    def row_source(
        self, alpha: float, row_slots: IntpArray
    ) -> tuple[FloatArray, IntpArray | None]:
        """Attenuation rows of ``row_slots`` as ``(rows, positions)``.

        ``rows[positions]`` (``rows`` itself when ``positions`` is ``None``)
        holds each requested slot's whole attenuation row.  ``rows`` is
        only read by the caller.  Here it is the attenuation matrix and
        ``positions`` the slots, as given.
        """
        return self.attenuation_matrix(alpha), row_slots

    # -- internals -----------------------------------------------------------

    def _patch_geometry(self, slots: np.ndarray) -> None:
        """Rewrite the rows/columns of ``slots`` in every materialized matrix.

        The rows evaluate the shared kernels on the current coordinates -
        exactly what a from-scratch rebuild runs - and are mirrored into the
        columns, which is exact because ``hypot`` is sign-symmetric.
        """
        if self._distances is None:
            # Nothing materialized yet: the lazy build will see the new
            # coordinates (attenuation derives from distances, so it cannot
            # be materialized without them).
            return
        rows = pairwise_distances(self._xy[slots], self._xy)
        dist = self._distances
        dist.flags.writeable = True
        dist[slots, :] = rows
        dist[:, slots] = rows.T
        dist.flags.writeable = False
        self.cells_patched += 2 * rows.size
        for alpha, att in self._attenuation.items():
            att_rows = attenuation_from_distances(rows, alpha)
            att.flags.writeable = True
            att[slots, :] = att_rows
            att[:, slots] = att_rows.T
            att.flags.writeable = False
            self.cells_patched += 2 * rows.size

    def _patch_fades(self, slots: np.ndarray) -> None:
        """Rewrite the fade rows/columns of newly assigned slots, per model.

        Fades need not be symmetric, so rows and columns are hashed
        separately (no mirroring); both directions run the model's pure
        elementwise hash, bitwise equal to a rebuild.
        """
        for model, fade in self._fades.items():
            if fade is None:
                continue
            row_fade = model.fade(self._ids[slots], self._ids, None)
            col_fade = model.fade(self._ids, self._ids[slots], None)
            fade.flags.writeable = True
            fade[slots, :] = row_fade
            fade[:, slots] = col_fade
            fade.flags.writeable = False
            self.cells_patched += row_fade.size + col_fade.size

    def _grow(self, min_capacity: int) -> None:
        """Reallocate every array to at least ``min_capacity`` slots.

        Doubling keeps the copy cost amortized O(1) per added node; copying
        preserves every materialized value bit-for-bit, and the fresh region
        is zero-filled (distance 0 / attenuation 0 / unit-less fade) until a
        node is assigned there and its rows are patched.
        """
        new_cap = max(4, 2 * self._capacity, min_capacity)
        xy = np.zeros((new_cap, 2), dtype=float)
        xy[: self._capacity] = self._xy
        ids = np.full(new_cap, -1, dtype=np.int64)
        ids[: self._capacity] = self._ids
        self._xy = _freeze(xy)
        self._ids = _freeze(ids)
        self._nodes.extend([None] * (new_cap - self._capacity))
        for slot in range(self._capacity, new_cap):
            heapq.heappush(self._free, slot)

        def enlarge(matrix: np.ndarray) -> np.ndarray:
            grown = np.zeros((new_cap, new_cap), dtype=matrix.dtype)
            grown[: self._capacity, : self._capacity] = matrix
            return _freeze(grown)

        if self._distances is not None:
            self._distances = enlarge(self._distances)
        self._attenuation = {alpha: enlarge(att) for alpha, att in self._attenuation.items()}
        self._fades = {
            model: None if fade is None else enlarge(fade)
            for model, fade in self._fades.items()
        }
        self._capacity = new_cap
