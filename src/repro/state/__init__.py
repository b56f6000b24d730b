"""Network-state layer: one capacity-managed geometry/gain store.

This package sits between the geometry primitives and the SINR caches in
the layer stack (see ``ARCHITECTURE.md``): a :class:`NetworkState` owns the
over-allocated position/distance/attenuation/fade matrices for one node
universe and supports O(damage) incremental add/remove/move; the caches of
``repro.sinr.arrays`` are views over it, and the dynamics drivers patch it
instead of rebuilding per event.  :class:`TiledNetworkState` is the exact
O(n) sibling for universes whose dense matrices would not fit;
:meth:`NetworkState.for_nodes` chooses between the two by size.
:class:`DecodeWorkspace` provides the scratch arenas the decode kernels
reuse instead of allocating per slot, and :mod:`repro.state.shared` exports
a state's arrays through POSIX shared memory so worker processes read them
zero-copy.
"""

from .kernels import (
    attenuation_from_distances,
    attenuation_rect_from_xy,
    distance_rect_from_xy,
    pairwise_distances,
)
from .network import DENSE_BUDGET_BYTES, NetworkState
from .scratch import DecodeWorkspace
from .shared import SharedStateSpec, StateExport, attach_state, export_state
from .tiled import DEFAULT_TILE_BUDGET_BYTES, TiledNetworkState

__all__ = [
    "NetworkState",
    "TiledNetworkState",
    "DENSE_BUDGET_BYTES",
    "DEFAULT_TILE_BUDGET_BYTES",
    "DecodeWorkspace",
    "SharedStateSpec",
    "StateExport",
    "attach_state",
    "export_state",
    "attenuation_from_distances",
    "attenuation_rect_from_xy",
    "distance_rect_from_xy",
    "pairwise_distances",
]
