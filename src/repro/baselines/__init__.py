"""Baselines: centralized MST scheduling, uniform power, naive TDMA."""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "centralized_mst": (
        "CentralizedMSTBaseline", "CentralizedBaselineResult", "euclidean_mst_tree",
    ),
    "uniform_scheduling": ("UniformScheduler", "UniformSchedulingResult"),
    "naive_tdma": ("naive_tdma_schedule", "NaiveTdmaResult"),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
