"""Network-state layer: one capacity-managed geometry/gain store.

This package sits between the geometry primitives and the SINR caches in
the layer stack (see ``ARCHITECTURE.md``): a :class:`NetworkState` owns the
over-allocated position/distance/attenuation/fade matrices for one node
universe and supports O(damage) incremental add/remove/move; the node view
of ``repro.sinr.arrays`` and the link arrays of ``repro.sinr.positioned``
address it by slot, and the dynamics drivers patch it
instead of rebuilding per event.  :class:`TiledNetworkState` is the exact
O(n) sibling for universes whose dense matrices would not fit;
:meth:`NetworkState.for_nodes` chooses between the two by size.
:class:`DecodeWorkspace` provides the scratch arenas the decode kernels
reuse instead of allocating per slot.
"""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "network": ("NetworkState", "DENSE_BUDGET_BYTES"),
    "tiled": ("TiledNetworkState", "DEFAULT_TILE_BUDGET_BYTES"),
    "scratch": ("DecodeWorkspace",),
    "kernels": (
        "attenuation_from_distances", "attenuation_rect_from_xy", "distance_rect_from_xy",
        "pairwise_distances", "first_positions",
    ),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
