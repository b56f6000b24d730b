"""SINR physical-model substrate: parameters, power, affectance, channel."""

from .affectance import (
    affectance,
    affectance_between_links,
    affectance_matrix,
    link_cost,
)
from .arrays import (
    AffectanceAccumulator,
    LinkArrayCache,
    NodeArrayCache,
    affectance_matrix_from_arrays,
    sinr_values_from_arrays,
)
from .channel import (
    CachedChannel,
    Channel,
    Reception,
    Transmission,
)
from .feasibility import (
    FEASIBILITY_TOLERANCE,
    FeasibilityReport,
    duplicate_senders,
    feasibility_report,
    is_feasible,
    is_schedulable_slot,
    sinr_values,
    violates_half_duplex,
)
from .parameters import DEFAULT_PARAMETERS, SINRParameters
from .power import (
    OBLIVIOUS_SCHEMES,
    ExplicitPower,
    LinearPower,
    MeanPower,
    PowerAssignment,
    UniformPower,
    oblivious_power_by_name,
)

__all__ = [
    "SINRParameters",
    "DEFAULT_PARAMETERS",
    "PowerAssignment",
    "UniformPower",
    "MeanPower",
    "LinearPower",
    "ExplicitPower",
    "OBLIVIOUS_SCHEMES",
    "oblivious_power_by_name",
    "link_cost",
    "affectance",
    "affectance_between_links",
    "affectance_matrix",
    "FeasibilityReport",
    "feasibility_report",
    "is_feasible",
    "is_schedulable_slot",
    "sinr_values",
    "violates_half_duplex",
    "duplicate_senders",
    "FEASIBILITY_TOLERANCE",
    "Channel",
    "CachedChannel",
    "Transmission",
    "Reception",
    "LinkArrayCache",
    "NodeArrayCache",
    "AffectanceAccumulator",
    "affectance_matrix_from_arrays",
    "sinr_values_from_arrays",
]
