"""SINR physical-model substrate: parameters, power, affectance, channel."""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "parameters": ("SINRParameters", "DEFAULT_PARAMETERS"),
    "power": (
        "PowerAssignment", "UniformPower", "MeanPower", "LinearPower", "ExplicitPower",
        "OBLIVIOUS_SCHEMES", "oblivious_power_by_name",
    ),
    "affectance": ("link_cost", "affectance", "affectance_between_links", "affectance_matrix"),
    "feasibility": (
        "FeasibilityReport", "feasibility_report", "is_feasible", "is_schedulable_slot",
        "sinr_values", "violates_half_duplex", "duplicate_senders", "FEASIBILITY_TOLERANCE",
    ),
    "channel": ("Channel", "CachedChannel", "Transmission", "Reception"),
    "positioned": ("PositionedLinks",),
    "arrays": (
        "LinkArrayCache", "NodeArrayCache", "AffectanceAccumulator",
        "affectance_matrix_from_arrays", "sinr_values_from_arrays",
    ),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())


# ``affectance`` is also the name of its submodule: importing the submodule
# sets the package attribute to the module, so the function is bound here,
# once the submodule has run.
from .affectance import affectance  # noqa: E402
