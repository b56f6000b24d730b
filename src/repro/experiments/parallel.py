"""Parallel multi-trial orchestration: the trial fabric.

Every experiment in this package is a sweep of independent trials (one per
``(size, seed)`` pair, or per ``(delta_target, seed)`` for the Delta sweeps).
Each trial derives all of its randomness from its own arguments
(``np.random.default_rng(offset + seed)``), so trials can be evaluated in any
order - or in different processes - and produce bit-identical rows.

:func:`map_trials` fans the trials out over a persistent **trial fabric**:

* one :class:`TrialFabric` per worker count lives for the whole process
  (created on first use, shut down at exit), so sweeps after the first pay
  zero pool start-up;
* each trial receives exactly its own argument tuple - typically
  ``(config, n, seed)``, a few hundred bytes pickled - and builds its
  deployment from it, so no sweep has geometry to share;
* trials are dispatched in contiguous *chunks*, cutting per-task overhead.

The cold-pool path (a fresh pool per sweep) lives on in the test suite as
the ``map_trials_cold`` oracle the parity tests compare against.  Results
are bit-identical on every path because the trial function receives exactly
the same argument values.

The trial function must be picklable (a module-level function), as must its
argument tuples and returned rows; every experiment module here follows that
shape (``_trial`` at module scope, rows of plain scalars).
"""

from __future__ import annotations

import atexit
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .._cpus import usable_cpu_count
from ..obs.kernels import instrument_kernels, kernel_timers_active, uninstrument_kernels
from ..obs.runtime import OBS, telemetry
from ..obs.spans import begin_span, end_span, span

__all__ = [
    "usable_cpu_count",
    "default_workers",
    "map_trials",
    "TrialFabric",
    "get_fabric",
    "shutdown_fabrics",
]

_A = TypeVar("_A")
_R = TypeVar("_R")


def default_workers() -> int:
    """Worker count used for ``workers=-1``: all *usable* cores but one."""
    return max(1, (usable_cpu_count() or 1) - 1)


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _run_chunk(task: tuple) -> tuple[list, dict | None]:
    """Worker entry point: run one trial chunk.

    Returns ``(results, obs_payload)``.  When the parent had telemetry on,
    the chunk runs against a fresh worker-local registry and the payload
    carries everything it accumulated; the parent merges payloads in chunk
    (= sweep) order, so counters are exact and deterministic at any worker
    count.  ``obs_payload`` is ``None`` when telemetry was off.
    """
    trial_fn, chunk, obs_spec = task
    if obs_spec is None:
        return [trial_fn(args) for args in chunk], None
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
                results.append(trial_fn(args))
    return results, registry.to_payload()


# --------------------------------------------------------------------------
# Parent-side fabric
# --------------------------------------------------------------------------


class TrialFabric:
    """A persistent worker pool that evaluates sweeps in chunks.

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
        chunksize: int | None = None,
    ) -> list[_R]:
        """Evaluate ``trial_fn`` over the trials, preserving sweep order.

        Args:
            trial_fn: module-level function of one tuple argument.
            trial_args: per-trial argument tuples.
            chunksize: trials per task (default: two chunks per worker).
        """
        _check_chunksize(chunksize)
        items = list(trial_args)
        if not items:
            return []
        if chunksize is None:
            chunksize = max(1, math.ceil(len(items) / (2 * self.workers)))
        chunks = [items[i : i + chunksize] for i in range(0, len(items), chunksize)]
        # With telemetry on, each task carries (kernel-timer flag, global
        # index of its first trial) so workers label spans with sweep
        # positions and accumulate into fresh local registries.
        obs_on = OBS.enabled
        timers = kernel_timers_active()
        tasks = [
            (trial_fn, chunk, (timers, start * chunksize) if obs_on else None)
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


def _check_chunksize(chunksize: int | None) -> None:
    if chunksize is not None and chunksize < 1:
        raise ValueError(f"chunksize must be None or >= 1, got {chunksize}")


def _map_sequential(trial_fn: Callable[..., _R], items: Sequence[Any]) -> list[_R]:
    """In-process path; calls ``trial_fn`` on exactly the tuples workers see."""
    results: list[_R] = []
    for index, args in enumerate(items):
        handle = begin_span("trial", index=index)
        try:
            results.append(trial_fn(args))
        finally:
            end_span(handle)
    return results


def map_trials(
    trial_fn: Callable[[_A], _R],
    trial_args: Iterable[_A],
    *,
    workers: int | None = None,
    chunksize: int | None = None,
) -> list[_R]:
    """Evaluate ``trial_fn`` over ``trial_args``, preserving sweep order.

    Args:
        trial_fn: module-level function of one argument (typically a tuple
            ``(config, n, seed)``); must be picklable for the worker pool.
        trial_args: the per-trial argument values, in sweep order.
        workers: ``None``/``0``/``1`` run sequentially in-process; ``k > 1``
            fans out over the persistent ``k``-worker fabric; ``-1`` uses
            :func:`default_workers`.
        chunksize: trials per pool task (default: two chunks per worker);
            ``None`` or at least 1 on every path.

    Returns:
        The per-trial results, in the same order as ``trial_args`` -
        identical to the sequential result because trials are independent
        and deterministically seeded from their arguments.
    """
    _check_chunksize(chunksize)
    items: Sequence[Any] = list(trial_args)
    count = _resolve_workers(workers, len(items))
    if count <= 1:
        return _map_sequential(trial_fn, items)
    return get_fabric(count).map(trial_fn, items, chunksize=chunksize)
