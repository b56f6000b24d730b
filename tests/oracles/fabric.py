"""The pre-fabric trial map (oracle of ``map_trials``)."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.experiments.parallel import _resolve_workers

_A = TypeVar("_A")
_R = TypeVar("_R")


def map_trials_cold(
    trial_fn: Callable[[_A], _R],
    trial_args: Iterable[_A],
    *,
    workers: int | None = None,
) -> list[_R]:
    """A cold pool per sweep, full args pickled per task.

    Parity tests compare the persistent chunked fabric against the
    per-sweep cold pool it replaced.
    """
    items: Sequence[Any] = list(trial_args)
    count = _resolve_workers(workers, len(items))
    if count <= 1:
        return [trial_fn(args) for args in items]
    with ProcessPoolExecutor(max_workers=min(count, len(items))) as pool:
        return list(pool.map(trial_fn, items))
