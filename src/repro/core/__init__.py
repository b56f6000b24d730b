"""The paper's algorithms: Init, rescheduling, capacity, TreeViaCapacity."""

from .bitree import BiTree
from .capacity import (
    CapacityResult,
    FirstFitResult,
    first_fit_schedule,
    first_fit_schedule_result,
    pair_weight,
    select_feasible_subset,
    select_power_controllable_subset,
    total_pair_weight,
)
from .connectivity import ConnectivityProtocol
from .distr_cap import DistrCapResult, DistrCapSelector
from .distributed_scheduling import DistributedScheduler, DistributedScheduleResult
from .init_tree import InitialTreeBuilder, InitialTreeResult, round_power
from .mean_power_selection import MeanPowerSelectionResult, MeanPowerSelector
from .power_control import MeanPowerRescheduler, RescheduleResult
from .power_solver import (
    PowerControlResult,
    foschini_miljanic,
    gain_matrix,
    is_power_controllable,
    solve_power,
    spectral_radius,
)
from .quantities import num_rounds_for_delta, upsilon
from .repair import RepairResult, TreeRepairer
from .schedule import Schedule
from .tree_subset import DegreeBoundedSubset, degree_bounded_subset
from .tree_via_capacity import (
    IterationRecord,
    PowerMode,
    TreeViaCapacity,
    TreeViaCapacityResult,
)

__all__ = [
    "BiTree",
    "Schedule",
    "ConnectivityProtocol",
    # initial tree
    "InitialTreeBuilder",
    "InitialTreeResult",
    "round_power",
    # scheduling
    "DistributedScheduler",
    "DistributedScheduleResult",
    "MeanPowerRescheduler",
    "RescheduleResult",
    "first_fit_schedule",
    "first_fit_schedule_result",
    "FirstFitResult",
    # capacity / selection
    "CapacityResult",
    "select_feasible_subset",
    "select_power_controllable_subset",
    "pair_weight",
    "total_pair_weight",
    "DistrCapSelector",
    "DistrCapResult",
    "MeanPowerSelector",
    "MeanPowerSelectionResult",
    "DegreeBoundedSubset",
    "degree_bounded_subset",
    # power control
    "solve_power",
    "foschini_miljanic",
    "is_power_controllable",
    "gain_matrix",
    "spectral_radius",
    "PowerControlResult",
    # tree via capacity
    "TreeViaCapacity",
    "TreeViaCapacityResult",
    "IterationRecord",
    "PowerMode",
    # repair (dynamic extension)
    "TreeRepairer",
    "RepairResult",
    # quantities
    "upsilon",
    "num_rounds_for_delta",
]
