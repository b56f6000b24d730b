"""Parallel multi-trial orchestration: the shared-memory trial fabric.

Every experiment in this package is a sweep of independent trials (one per
``(size, seed)`` pair, or per ``(delta_target, seed)`` for the Delta sweeps).
Each trial derives all of its randomness from its own arguments
(``np.random.default_rng(offset + seed)``), so trials can be evaluated in any
order - or in different processes - and produce bit-identical rows.

Before PR 5 the fan-out paid two fixed costs per sweep: a *cold*
``ProcessPoolExecutor`` was created (and torn down) for every ``run(...)``
call, and every task pickled its full argument tuple - including the shared
``ExperimentConfig`` and, for geometry-heavy trial functions, O(n^2)
matrices.  :func:`map_trials` now runs on a persistent **trial fabric**:

* one :class:`TrialFabric` per worker count lives for the whole process
  (created on first use, shut down at exit), so sweeps after the first pay
  zero pool start-up;
* the sweep-constant ``shared`` payload (typically the config) is pickled
  **once** into a POSIX shared-memory block; tasks carry only the tiny
  per-trial tails, and workers unpickle the payload once per sweep;
* a sweep-constant :class:`~repro.state.NetworkState` can ride along as
  ``state=``: its matrices are exported through
  :mod:`repro.state.shared` and mapped **zero-copy** in every worker
  (no per-trial matrix pickling); trial functions fetch it with
  :func:`shared_state`;
* trials are dispatched in contiguous *chunks*, cutting per-task overhead.

The pre-fabric behaviour - cold pool, every argument pickled per task -
lives on in the test suite as the ``map_trials_cold`` oracle the parity
tests and benchmarks compare against.  Results are bit-identical on every
path because the trial function receives exactly the same argument values.

The trial function must be picklable (a module-level function), as must its
argument tuples and returned rows; every experiment module here follows that
shape (``_trial`` at module scope, rows of plain scalars).
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, Sequence, TypeVar

from ..obs.kernels import instrument_kernels, kernel_timers_active, uninstrument_kernels
from ..obs.runtime import OBS, telemetry
from ..obs.spans import begin_span, end_span, span
from ..state import NetworkState, SharedStateSpec, attach_state, export_state
from ..state.shared import StateExport

__all__ = [
    "usable_cpu_count",
    "default_workers",
    "map_trials",
    "shared_state",
    "TrialFabric",
    "get_fabric",
    "shutdown_fabrics",
]

_A = TypeVar("_A")
_R = TypeVar("_R")


def usable_cpu_count() -> int | None:
    """CPUs this process may actually use (affinity-aware).

    Containers and batch schedulers routinely pin a process to a subset of
    the machine, so the affinity mask (``os.process_cpu_count`` on Python >=
    3.13, ``sched_getaffinity`` elsewhere) is consulted before the raw
    ``os.cpu_count``.  This is the one implementation of that probe
    (``scripts/run_benchmarks.py`` records it in baseline fingerprints).
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        return process_cpu_count()
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count()


def default_workers() -> int:
    """Worker count used for ``workers=-1``: all *usable* cores but one."""
    return max(1, (usable_cpu_count() or 1) - 1)


# --------------------------------------------------------------------------
# Worker-side payload registry
# --------------------------------------------------------------------------

#: Per-process cache of attached sweep payloads, keyed by shm block name.
#: Workers are reused across sweeps; entries for past sweeps are evicted
#: when a task referencing a different payload arrives.
_ATTACHED: dict[str, Any] = {}
#: The NetworkState broadcast of the sweep currently being executed (set in
#: workers by ``_run_chunk``, in the parent by the sequential path).
_CURRENT_STATE: NetworkState | None = None


def shared_state() -> NetworkState | None:
    """The sweep's broadcast :class:`~repro.state.NetworkState`, if any.

    Trial functions that opted into the fabric's ``state=`` channel call
    this to reach the zero-copy geometry store.  Works identically in
    worker processes (shared-memory view) and in the sequential in-process
    path (the original state).
    """
    return _CURRENT_STATE


def _attach_pickle(name: str, size: int) -> Any:
    """Unpickle a broadcast payload from its shm block, once per sweep."""
    if name in _ATTACHED:
        return _ATTACHED[name]
    block = shared_memory.SharedMemory(name=name)
    try:
        value = pickle.loads(bytes(block.buf[:size]))
    finally:
        block.close()
    _ATTACHED[name] = value
    return value


def _attach_shared_state(spec: SharedStateSpec) -> NetworkState:
    """Map a broadcast state zero-copy, once per sweep per worker."""
    key = spec.xy.name
    state = _ATTACHED.get(key)
    if state is None:
        state = attach_state(spec)
        _ATTACHED[key] = state
    return state


def _evict_stale(live_names: set[str]) -> None:
    for name in [name for name in _ATTACHED if name not in live_names]:
        del _ATTACHED[name]


def _run_chunk(task: tuple) -> tuple[list, dict | None]:
    """Worker entry point: resolve the sweep payloads, run one trial chunk.

    Returns ``(results, obs_payload)``.  When the parent had telemetry on,
    the chunk runs against a fresh worker-local registry and the payload
    carries everything it accumulated; the parent merges payloads in chunk
    (= sweep) order, so counters are exact and deterministic at any worker
    count.  ``obs_payload`` is ``None`` when telemetry was off.
    """
    trial_fn, shared_spec, state_spec, chunk, obs_spec = task
    live: set[str] = set()
    payload = None
    if shared_spec is not None:
        name, size = shared_spec
        payload = _attach_pickle(name, size)
        live.add(name)
    global _CURRENT_STATE
    _CURRENT_STATE = None
    if state_spec is not None:
        _CURRENT_STATE = _attach_shared_state(state_spec)
        live.add(state_spec.xy.name)
    _evict_stale(live)
    if obs_spec is None:
        if shared_spec is None:
            return [trial_fn(args) for args in chunk], None
        return [trial_fn((payload, *args)) for args in chunk], None
    kernel_timers, chunk_start = obs_spec
    # Mirror the parent's timer state: worker processes are reused across
    # sweeps, so an untimed sweep must also undo wrappers a previous timed
    # sweep installed - otherwise workers would record kernel counters the
    # sequential path doesn't, breaking worker-count parity.
    if kernel_timers:
        instrument_kernels()
    else:
        uninstrument_kernels()
    results: list = []
    with telemetry() as registry:
        for offset, args in enumerate(chunk):
            with span("trial", index=chunk_start + offset):
                results.append(
                    trial_fn(args if shared_spec is None else (payload, *args))
                )
    return results, registry.to_payload()


# --------------------------------------------------------------------------
# Parent-side fabric
# --------------------------------------------------------------------------


def _export_pickle(value: Any) -> tuple[tuple[str, int], shared_memory.SharedMemory]:
    """Pickle a sweep payload into one shm block (read by every worker)."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    block = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    block.buf[: len(payload)] = payload
    return (block.name, len(payload)), block


class TrialFabric:
    """A persistent worker pool with shared-memory sweep broadcasts.

    The pool is created lazily on the first :meth:`map` and reused for every
    subsequent sweep; :func:`get_fabric` hands out one fabric per worker
    count and registers an exit hook, so callers never manage lifetimes.

    Args:
        workers: number of worker processes.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def map(
        self,
        trial_fn: Callable[..., _R],
        trial_args: Iterable[Any],
        *,
        shared: Any = None,
        state: NetworkState | None = None,
        state_alphas: tuple[float, ...] = (),
        chunksize: int | None = None,
    ) -> list[_R]:
        """Evaluate ``trial_fn`` over the trials, preserving sweep order.

        Args:
            trial_fn: module-level function of one tuple argument.
            trial_args: per-trial argument tuples.  With ``shared``, these
                are the per-trial *tails*: each call receives
                ``(shared, *tail)`` re-assembled in the worker.
            shared: sweep-constant payload, pickled once into shared memory
                instead of once per trial.
            state: sweep-constant geometry store, exported zero-copy;
                trial functions reach it via :func:`shared_state`.
            state_alphas: path-loss exponents whose ``d**alpha`` attenuation
                matrices ride along in the state export, so workers do not
                re-derive them from the shared distances once per sweep.
            chunksize: trials per task (default: two chunks per worker).
        """
        items = list(trial_args)
        if not items:
            return []
        exports: list[StateExport | shared_memory.SharedMemory] = []
        shared_spec = None
        state_spec = None
        try:
            if shared is not None:
                shared_spec, block = _export_pickle(shared)
                exports.append(block)
            if state is not None:
                export = export_state(state, alphas=state_alphas)
                state_spec = export.spec
                exports.append(export)
            if chunksize is None:
                chunksize = max(1, math.ceil(len(items) / (2 * self.workers)))
            chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]
            # With telemetry on, each task carries (kernel-timer flag, global
            # index of its first trial) so workers label spans with sweep
            # positions and accumulate into fresh local registries.
            obs_on = OBS.enabled
            timers = kernel_timers_active()
            tasks = [
                (
                    trial_fn,
                    shared_spec,
                    state_spec,
                    chunk,
                    (timers, start * chunksize) if obs_on else None,
                )
                for start, chunk in enumerate(chunks)
            ]
            pool = self._ensure_pool()
            try:
                with span("fabric.map", trials=len(items), workers=self.workers):
                    nested = list(pool.map(_run_chunk, tasks))
            except BrokenProcessPool:
                # A dead worker poisons the executor permanently; drop it so
                # the next sweep starts a fresh pool.
                self.shutdown()
                raise
        finally:
            for handle in exports:
                if isinstance(handle, StateExport):
                    handle.close()
                else:
                    handle.close()
                    try:
                        handle.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
        results: list[_R] = []
        for chunk_results, obs_payload in nested:
            # Chunk order is sweep order, which makes gauge last-writer-wins
            # (and therefore the whole merge) worker-count invariant.
            results.extend(chunk_results)
            if obs_payload is not None:
                OBS.registry.merge_payload(obs_payload)
        return results

    def shutdown(self) -> None:
        """Terminate the worker pool (the fabric can be used again after)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


_FABRICS: dict[int, TrialFabric] = {}


def get_fabric(workers: int) -> TrialFabric:
    """The process-wide fabric for ``workers`` worker processes."""
    fabric = _FABRICS.get(workers)
    if fabric is None:
        fabric = TrialFabric(workers)
        _FABRICS[workers] = fabric
    return fabric


def shutdown_fabrics() -> None:
    """Shut down every fabric pool (registered as an exit hook)."""
    for fabric in _FABRICS.values():
        fabric.shutdown()
    _FABRICS.clear()


atexit.register(shutdown_fabrics)


# --------------------------------------------------------------------------
# Sweep entry points
# --------------------------------------------------------------------------


def _resolve_workers(workers: int | None, items: int) -> int:
    count = workers if workers is not None else 1
    if count < 0:
        count = default_workers()
    if items <= 1:
        return 1
    return count


def _map_sequential(
    trial_fn: Callable[..., _R],
    items: Sequence[Any],
    shared: Any,
    state: NetworkState | None,
) -> list[_R]:
    """In-process path; composes the same argument tuples the workers see.

    The broadcast state is flipped read-only for the duration of the sweep:
    workers only ever see an immutable shared-memory view, and the contract
    must not diverge with the worker count - a trial mutating the broadcast
    raises identically at ``workers=1``.
    """
    global _CURRENT_STATE
    previous = _CURRENT_STATE
    _CURRENT_STATE = state
    was_readonly = None
    if state is not None:
        was_readonly = state._readonly  # noqa: SLF001 - sweep-scoped freeze
        state._readonly = True  # repro-lint: disable=RL004 - the freeze itself
    try:
        results: list[_R] = []
        for index, args in enumerate(items):
            handle = begin_span("trial", index=index)
            try:
                results.append(
                    trial_fn(args) if shared is None else trial_fn((shared, *args))
                )
            finally:
                end_span(handle)
        return results
    finally:
        _CURRENT_STATE = previous
        if state is not None:
            state._readonly = was_readonly  # repro-lint: disable=RL004 - unfreeze


def map_trials(
    trial_fn: Callable[[_A], _R],
    trial_args: Iterable[_A],
    *,
    workers: int | None = None,
    shared: Any = None,
    state: NetworkState | None = None,
    state_alphas: tuple[float, ...] = (),
    chunksize: int | None = None,
) -> list[_R]:
    """Evaluate ``trial_fn`` over ``trial_args``, preserving sweep order.

    Args:
        trial_fn: module-level function of one argument (typically a tuple
            ``(config, n, seed)``); must be picklable for the worker pool.
        trial_args: the per-trial argument values, in sweep order.  With
            ``shared``, pass only the per-trial tails - each call receives
            ``(shared, *tail)``.
        workers: ``None``/``0``/``1`` run sequentially in-process; ``k > 1``
            fans out over the persistent ``k``-worker fabric; ``-1`` uses
            :func:`default_workers`.
        shared: sweep-constant payload broadcast once per sweep (pickled
            into shared memory) instead of once per trial.
        state: sweep-constant :class:`~repro.state.NetworkState` broadcast
            zero-copy; trial functions fetch it via :func:`shared_state`.
            The broadcast is immutable for the sweep's duration on every
            path (workers map it read-only; the sequential path freezes it).
        state_alphas: attenuation exponents exported with the state (see
            :meth:`TrialFabric.map`).
        chunksize: trials per pool task (default: two chunks per worker).

    Returns:
        The per-trial results, in the same order as ``trial_args`` -
        identical to the sequential result because trials are independent
        and deterministically seeded from their arguments.
    """
    items: Sequence[Any] = list(trial_args)
    count = _resolve_workers(workers, len(items))
    if count <= 1:
        return _map_sequential(trial_fn, items, shared, state)
    return get_fabric(count).map(
        trial_fn,
        items,
        shared=shared,
        state=state,
        state_alphas=state_alphas,
        chunksize=chunksize,
    )
