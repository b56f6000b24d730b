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

Consumers never index the capacity-sized arrays directly; the caches of
``repro.sinr.arrays`` are thin *views* holding an array of live slots and
gathering blocks on demand, so one state instance can back a node cache, a
cached channel and any number of link caches at once.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..geometry import Node, Point
from .kernels import attenuation_from_distances, pairwise_distances

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dynamics/links use state)
    from ..dynamics.gain import GainModel
    from ..links import Link

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

    #: Whether whole derived matrices exist to be gathered from.  Consumers
    #: such as ``NodeArrayCache`` dispatch on this instead of isinstance, so
    #: third-party stores can opt in to either protocol.
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
        self._capacity = cap
        self._xy = np.zeros((cap, 2), dtype=float)
        self._ids = np.full(cap, -1, dtype=np.int64)
        self._nodes: list[Node | None] = [None] * cap
        if n:
            self._xy[:n] = [[node.x, node.y] for node in node_list]
            self._ids[:n] = ids
            self._nodes[:n] = node_list
        _freeze(self._xy)
        _freeze(self._ids)
        self._slot_by_id: dict[int, int] = {node.id: i for i, node in enumerate(node_list)}
        self._free: list[int] = list(range(n, cap))
        heapq.heapify(self._free)
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
        replays of ``repro.netsim.aggregation`` and mean-power sampling):
        they build a :class:`~repro.state.TiledNetworkState` at any size,
        which computes those rectangles from coordinates without first
        building the n x n matrices.
        """
        node_list = list(nodes)
        if 16 * len(node_list) ** 2 <= DENSE_BUDGET_BYTES:
            return NetworkState(node_list)
        from .tiled import TiledNetworkState  # the subclass imports this module

        return TiledNetworkState(node_list)

    @staticmethod
    def for_links(links: Iterable["Link"]) -> "NetworkState":
        """:meth:`for_nodes` over the unique endpoints of a link collection."""
        return NetworkState.for_nodes(_link_endpoints(links))

    def subset(self, nodes: Iterable[Node]) -> "NetworkState":
        """The store for ``nodes``, a subset of this store's live nodes.

        The result is a fresh store over ``nodes`` in the given order, chosen
        by :meth:`for_nodes`.  When both stores are dense, every matrix this
        store has materialized is gathered (``np.ix_``) instead of
        recomputed: the same floats a fresh store would derive, without the
        pairwise work.  Callers that shrink a population step by step chain
        these, so each step pays one gather.

        Raises:
            ValueError: if a node is not live here, sits elsewhere than this
                store holds it, or appears twice.
        """
        node_list = list(nodes)
        try:
            slots = np.array([self._slot_by_id[node.id] for node in node_list], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"node {exc.args[0]!r} is not live in this store") from None
        sub = NetworkState.for_nodes(node_list)
        if not np.array_equal(sub.xy, self._xy[slots], equal_nan=True):
            raise ValueError("the subset's nodes must sit where this store holds them")
        if self._distances is not None and sub.materializes_matrices:
            grid = np.ix_(slots, slots)
            sub._distances = _freeze(self._distances[grid])
            sub._attenuation = {
                alpha: _freeze(att[grid]) for alpha, att in self._attenuation.items()
            }
            sub._fades = {
                model: None if fade is None else _freeze(fade[grid])
                for model, fade in self._fades.items()
            }
        return sub

    def max_distance(self) -> float:
        """Largest distance between two live nodes (``0.0`` for fewer than two).

        The maximum of the distance matrix, which holds the same ``hypot``
        values as :func:`~repro.geometry.diameter`; a maximum does not depend
        on evaluation order, so the two are bitwise equal.
        """
        if len(self) < 2:
            return 0.0
        dist = self.distance_matrix()
        if len(self) < self._capacity:
            live = self.live_slots()
            dist = dist[np.ix_(live, live)]
        return float(dist.max())

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
