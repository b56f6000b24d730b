"""The paper's algorithms: Init, rescheduling, capacity, TreeViaCapacity."""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "bitree": ("BiTree",),
    "schedule": ("Schedule",),
    "connectivity": ("ConnectivityProtocol",),
    "init_tree": ("InitialTreeBuilder", "InitialTreeResult", "round_power"),
    "distributed_scheduling": ("DistributedScheduler", "DistributedScheduleResult"),
    "power_control": ("MeanPowerRescheduler", "RescheduleResult"),
    "capacity": (
        "first_fit_schedule", "first_fit_schedule_result", "FirstFitResult", "CapacityResult",
        "select_feasible_subset", "select_power_controllable_subset", "pair_weight",
        "total_pair_weight",
    ),
    "distr_cap": ("DistrCapSelector", "DistrCapResult"),
    "mean_power_selection": ("MeanPowerSelector", "MeanPowerSelectionResult"),
    "tree_subset": ("DegreeBoundedSubset", "degree_bounded_subset"),
    "power_solver": (
        "solve_power", "foschini_miljanic", "is_power_controllable", "gain_matrix",
        "spectral_radius", "PowerControlResult",
    ),
    "tree_via_capacity": (
        "TreeViaCapacity", "TreeViaCapacityResult", "IterationRecord", "PowerMode",
    ),
    "repair": ("TreeRepairer", "RepairResult"),
    "quantities": ("upsilon", "num_rounds_for_delta"),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
