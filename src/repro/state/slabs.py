"""Slab parallelism: the one fan-out path of the arithmetic-bound geometry kernels.

Two kernels do elementwise or column-independent NumPy work on blocks large
enough to split: the tiled row-cache fill
(:func:`~repro.state.kernels.fill_attenuation_rows`, split by rows) and the
whole-universe decode over those rows (split by listener columns, in
``sinr/channel.py``).  Each splits its block into slabs of at most
:data:`SLAB_BYTES` with :func:`slab_bounds` and hands a body to
:func:`run_slabs`, which runs the slabs on a lazily started thread pool
that the calling thread joins as its first worker.

The bounds depend only on the block's shape, never on the worker count, and
every slab writes its own rows or columns of the output, so a result is
bitwise the same on any number of workers.  A worker runs only NumPy, on
read-only inputs and its own output slab, under the calling thread's
``np.errstate``.  Spans, kernel timers and OBS counters are recorded by the
callers, on the calling thread, before or after the fan-out.

A forked child (a fork-started trial worker) runs its slabs inline: the
parent's pool threads do not exist there, and a process pool of trial
workers should not start a thread pool in each of them.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .._cpus import usable_cpu_count

if TYPE_CHECKING:  # pragma: no cover - the pool module loads on first fan-out
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["SLAB_BYTES", "run_slabs", "set_slab_workers", "slab_bounds", "slab_workers"]

#: Bytes of one slab: a fill's output rows, or a decode's gathered
#: ``(k, cols)`` attenuation piece.  A block of more than one slab is split.
SLAB_BYTES = 1024 * 1024

_workers: int | None = None
_pool: "ThreadPoolExecutor | None" = None
_lock = threading.Lock()
_pool_thread = threading.local()


def slab_workers() -> int:
    """Threads a fan-out runs on, the calling thread included.

    The usable core count (affinity-aware), read once, unless
    :func:`set_slab_workers` chose another.
    """
    global _workers
    if _workers is None:
        _workers = max(1, usable_cpu_count() or 1)
    return _workers


def set_slab_workers(count: int | None) -> None:
    """Run later fan-outs on ``count`` threads (``None``: the usable cores).

    Stops the current pool; the next fan-out starts one of the new size.
    Results do not depend on the count.
    """
    global _workers, _pool
    if count is not None and count < 1:
        raise ValueError(f"slab workers must be at least 1, got {count}")
    with _lock:
        pool, _pool = _pool, None
        _workers = count
    if pool is not None:
        pool.shutdown(wait=True)


def slab_bounds(total: int, unit_bytes: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges splitting ``total`` rows or columns of
    ``unit_bytes`` each into near-equal slabs of at most :data:`SLAB_BYTES`.

    A slab is never narrower than two units: NumPy sums a single column
    pairwise, but the columns of a wider block in row order, so a
    one-column slab of a decode would not reproduce the whole block's sums.
    Four units per slab at least keeps every slab of an even split at two
    or more.
    """
    per = max(4, SLAB_BYTES // max(1, unit_bytes))
    count = max(1, -(-total // per))
    return [(i * total // count, (i + 1) * total // count) for i in range(count)]


def run_slabs(body: Callable[[int, int], None], bounds: Sequence[tuple[int, int]]) -> None:
    """Call ``body(lo, hi)`` once for every slab in ``bounds``.

    One slab, one worker, or a call from inside a slab runs the slabs in
    order on the calling thread.  Otherwise up to ``slab_workers() - 1`` pool
    threads and the calling thread take slabs from one shared queue until it
    is empty; the call returns once every slab has finished, and then
    re-raises a slab's error, if any.  Bodies must write disjoint outputs.
    """
    workers = min(slab_workers(), len(bounds))
    if workers <= 1 or getattr(_pool_thread, "active", False):
        for lo, hi in bounds:
            body(lo, hi)
        return
    pending = iter(bounds)
    errstate = np.geterr()

    def drain() -> None:
        # NumPy's error state is per thread: carry the caller's over.
        with np.errstate(**errstate):
            for lo, hi in pending:
                body(lo, hi)

    pool = _ensure_pool()
    futures = [pool.submit(drain) for _ in range(workers - 1)]
    try:
        for lo, hi in pending:
            body(lo, hi)
    finally:
        for future in futures:
            # Wait for every slab before returning or raising.
            future.exception()
    for future in futures:
        future.result()


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def _ensure_pool() -> "ThreadPoolExecutor":
    global _pool
    with _lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                max_workers=max(1, slab_workers() - 1),
                thread_name_prefix="repro-slab",
                initializer=_mark_pool_thread,
            )
        return _pool


def _reset_after_fork() -> None:
    """In a forked child: no pool (its threads stayed in the parent), slabs inline."""
    global _workers, _pool, _lock
    _pool = None
    _workers = 1
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_after_fork)
