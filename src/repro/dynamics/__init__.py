"""Dynamics subsystem: gain models, mobility, churn, and their driver.

The paper proves its guarantees for a frozen node set under deterministic
``P / d**alpha`` path loss; its conclusion names "dynamic situations" as the
natural extension.  This package opens that scenario space on top of the
vectorized batch slot engine:

* :mod:`~repro.dynamics.gain` - pluggable channel-gain models
  (:class:`DeterministicPathLoss`, :class:`LogNormalShadowing`,
  :class:`RayleighFading`, :class:`ComposedGain`), threaded through
  ``SINRParameters.gain_model`` into every SINR kernel;
* :mod:`~repro.dynamics.mobility` - node movement
  (:class:`StaticMobility`, :class:`RandomWalk`, :class:`RandomWaypoint`)
  with incremental invalidation of the cached distance/attenuation matrices;
* :mod:`~repro.dynamics.churn` - seeded failure/arrival streams
  (:class:`ChurnProcess`) wired to incremental tree repair;
* :mod:`~repro.dynamics.simulator` - the :class:`DynamicSimulator` driver
  running a :class:`DynamicScenario` epoch by epoch.

Everything is deterministic given its seeds, so the parallel experiment
harness fans dynamic trials out over worker processes with bit-identical
results.
"""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "gain": (
        "GainModel", "DeterministicPathLoss", "LogNormalShadowing", "RayleighFading",
        "ComposedGain",
    ),
    "mobility": (
        "MobilityModel", "StaticMobility", "RandomWalk", "RandomWaypoint", "bounding_rectangle",
    ),
    "churn": ("ChurnEvent", "ChurnProcess"),
    "simulator": (
        "DynamicScenario", "DynamicSimulator", "DynamicRunResult", "EpochRecord",
        "replay_schedule",
    ),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
