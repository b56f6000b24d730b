"""The usable core count, below every layer that fans work out.

``state/slabs.py`` sizes its thread pool from it and
``experiments/parallel.py`` its process fabric (and re-exports it, which
``perfbench/run.py`` and ``scripts/run_benchmarks.py`` record).
"""

from __future__ import annotations

import os

__all__ = ["usable_cpu_count"]


def usable_cpu_count() -> int | None:
    """CPUs this process may actually use (affinity-aware).

    Containers and batch schedulers routinely pin a process to a subset of
    the machine, so the affinity mask (``os.process_cpu_count`` on Python >=
    3.13, ``sched_getaffinity`` elsewhere) is consulted before the raw
    ``os.cpu_count``.  This is the one implementation of that probe.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        return process_cpu_count()
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count()
