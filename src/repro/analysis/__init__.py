"""Analysis: metrics, latency replay, fault accounting, validation, reporting."""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "latency": (
        "ConvergecastOutcome", "BroadcastOutcome", "PairwiseOutcome", "simulate_convergecast",
        "simulate_broadcast", "pairwise_latency",
    ),
    "metrics": (
        "DegreeStatistics", "degree_statistics", "ScheduleStatistics", "schedule_statistics",
        "AffectanceStatistics", "affectance_statistics", "tree_sparsity", "loglog_fit",
    ),
    "reporting": (
        "format_table", "format_markdown_table", "format_value", "dynamics_health_table",
        "kernel_time_table", "counters_table",
    ),
    "validation": ("ValidationReport", "validate_bitree", "validate_connectivity_solution"),
    "faults": ("FaultReport", "fault_report", "overhead_table", "round_overhead"),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
