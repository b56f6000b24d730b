"""Zero-copy :class:`~repro.state.NetworkState` sharing across processes.

The parallel trial fabric (:mod:`repro.experiments.parallel`) used to pickle
a trial's full geometry into every task - at 256 nodes that is half a
megabyte of distance matrix *per trial*, serialized, copied through a pipe
and deserialized again.  This module replaces that with POSIX shared memory:

* :func:`export_state` copies a state's coordinate/id arrays (and any
  materialized distance/attenuation matrices) into named
  ``multiprocessing.shared_memory`` blocks **once** and returns a tiny
  picklable :class:`SharedStateSpec` describing them.
* :func:`attach_state` (called in a worker) maps those blocks and wraps
  them in a *read-only* ``NetworkState`` via
  :meth:`~repro.state.NetworkState.from_arrays` - zero bytes copied, and
  every worker shares one physical copy of the matrices.

The parent owns the blocks: it keeps the returned :class:`StateExport`
alive for the duration of the sweep and calls :meth:`StateExport.close`
afterwards.  Unlinking while workers still hold attachments is safe on
POSIX - the mapping survives until the last process closes it.

Only *compact* states (live slots ``0..n-1``, the shape of every freshly
built deployment) can be exported; a churned state with holes should be
re-packed by its owner first.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import cast

import numpy as np

from .network import NetworkState
from .tiled import TiledNetworkState

__all__ = ["SharedArraySpec", "SharedStateSpec", "StateExport", "export_state", "attach_state"]


@dataclass(frozen=True)
class SharedArraySpec:
    """Name and layout of one array living in a shared-memory block."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedStateSpec:
    """Picklable description of an exported state (sent to workers per sweep)."""

    xy: SharedArraySpec
    ids: SharedArraySpec
    distances: SharedArraySpec | None
    attenuation: tuple[tuple[float, SharedArraySpec], ...]
    #: Row-cache budget of an exported :class:`TiledNetworkState`, so
    #: workers re-materialize the same store kind; ``None`` for a dense one.
    tiled_budget_bytes: int | None = None

    @property
    def block_names(self) -> tuple[str, ...]:
        """Names of every shared-memory block the spec references."""
        names = [self.xy.name, self.ids.name]
        if self.distances is not None:
            names.append(self.distances.name)
        names.extend(spec.name for _, spec in self.attenuation)
        return tuple(names)


def _export_array(array: np.ndarray, label: str) -> tuple[SharedArraySpec, shared_memory.SharedMemory]:
    """Copy one array into a fresh shared-memory block."""
    array = np.ascontiguousarray(array)
    name = f"repro_{label}_{secrets.token_hex(8)}"
    block = shared_memory.SharedMemory(name=name, create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
    view[...] = array
    return SharedArraySpec(name=name, shape=tuple(array.shape), dtype=array.dtype.str), block


def _attach_array(spec: SharedArraySpec) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Map one exported array; the returned block must outlive the array."""
    # The parent owns the block's lifetime: it created (and registered) the
    # segment and unlinks it after the sweep; attaching here must not add a
    # competing unlink, and on this interpreter it does not (only creation
    # registers with the resource tracker).
    block = shared_memory.SharedMemory(name=spec.name)
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=block.buf)
    array.flags.writeable = False
    return array, block


class StateExport:
    """Parent-side handle of an exported state; owns the shm blocks."""

    __slots__ = ("spec", "_blocks")

    def __init__(self, spec: SharedStateSpec, blocks: list[shared_memory.SharedMemory]) -> None:
        self.spec = spec
        self._blocks = blocks

    def close(self) -> None:
        """Release the blocks (close + unlink); attached workers keep their maps."""
        for block in self._blocks:
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._blocks = []

    def __enter__(self) -> "StateExport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def export_state(
    state: NetworkState,
    *,
    include_distances: bool = True,
    alphas: tuple[float, ...] = (),
) -> StateExport:
    """Export a compact state's arrays into shared memory, copying each once.

    Args:
        state: the state to share; its live slots must be ``0..n-1``.
        include_distances: also export the node-distance matrix
            (materializing it if needed) so workers skip the O(n^2) rebuild.
        alphas: path-loss exponents whose ``d**alpha`` attenuation matrices
            are exported alongside (materializing them if needed).
    """
    n = len(state)
    if not np.array_equal(state.live_slots(), np.arange(n, dtype=np.intp)):
        raise ValueError(
            "only compact states (live slots 0..n-1) can be exported; "
            "re-pack the state before sharing it"
        )
    tiled = not state.materializes_matrices
    blocks: list[shared_memory.SharedMemory] = []
    try:
        xy_spec, block = _export_array(state.xy[:n], "xy")
        blocks.append(block)
        ids_spec, block = _export_array(state.ids[:n], "ids")
        blocks.append(block)
        dist_spec = None
        if include_distances and not tiled:
            dist_spec, block = _export_array(state.distance_matrix()[:n, :n], "dist")
            blocks.append(block)
        att_specs = []
        if not tiled:
            # A tiled state has no matrices to ship - workers rebuild their
            # own O(n) derived structures from the shared coordinates.
            for alpha in alphas:
                spec, block = _export_array(state.attenuation_matrix(alpha)[:n, :n], "att")
                blocks.append(block)
                att_specs.append((float(alpha), spec))
    except Exception:
        for block in blocks:
            block.close()
            block.unlink()
        raise
    return StateExport(
        SharedStateSpec(
            xy=xy_spec,
            ids=ids_spec,
            distances=dist_spec,
            attenuation=tuple(att_specs),
            tiled_budget_bytes=cast(TiledNetworkState, state).budget_bytes if tiled else None,
        ),
        blocks,
    )


def attach_state(spec: SharedStateSpec) -> NetworkState:
    """Map an exported state read-only, copying nothing.

    The returned state keeps references to its shared-memory blocks, so it
    (and views over it) stay valid for the state's lifetime even after the
    exporting process unlinks the blocks.
    """
    keepalive: list[shared_memory.SharedMemory] = []
    xy, block = _attach_array(spec.xy)
    keepalive.append(block)
    ids, block = _attach_array(spec.ids)
    keepalive.append(block)
    distances = None
    if spec.distances is not None:
        distances, block = _attach_array(spec.distances)
        keepalive.append(block)
    attenuation: dict[float, np.ndarray] = {}
    for alpha, array_spec in spec.attenuation:
        matrix, block = _attach_array(array_spec)
        keepalive.append(block)
        attenuation[alpha] = matrix
    state: NetworkState
    if spec.tiled_budget_bytes is not None:
        state = TiledNetworkState.from_arrays(xy, ids, budget_bytes=spec.tiled_budget_bytes)
    else:
        state = NetworkState.from_arrays(xy, ids, distances=distances, attenuation=attenuation)
    # The blocks must outlive the adopted views; anchoring them on the state
    # this function itself just created is the deliberate exception.
    state._shm_keepalive = keepalive  # noqa: SLF001  # repro-lint: disable=RL004
    return state
