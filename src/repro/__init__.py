"""repro: distributed connectivity of wireless networks in the SINR model.

A from-scratch reproduction of Halldorsson & Mitra, "Distributed Connectivity
of Wireless Networks" (PODC 2012 / arXiv:1205.5164): the SINR simulation
substrate, the distributed bi-tree construction ``Init``, sparsity-based
mean-power rescheduling, the ``TreeViaCapacity`` framework matching
centralized schedule lengths, baselines, and an experiment harness validating
every theorem's scaling behaviour.

Quickstart::

    import numpy as np
    from repro import uniform_random, SINRParameters, ConnectivityProtocol

    rng = np.random.default_rng(0)
    nodes = uniform_random(64, rng)
    protocol = ConnectivityProtocol(SINRParameters())
    result = protocol.build_initial_tree(nodes, rng)
    print(result.tree.root_id, result.slots_used)
"""

from typing import Any

from ._lazy import LazyExports

__version__ = "1.0.0"

_EXPORTS = LazyExports(__name__, {
    "constants": ("AlgorithmConstants", "PracticalConstants", "PaperConstants"),
    "exceptions": (
        "ReproError", "ConfigurationError", "DeploymentError", "InfeasiblePowerError",
        "ScheduleError", "ProtocolError", "ConvergenceError",
    ),
    "geometry": (
        "Point", "Node", "uniform_random", "grid", "clustered", "two_scale", "exponential_chain",
        "linear_chain",
    ),
    "links": ("Link", "LinkSet", "sparsity"),
    "state": ("NetworkState",),
    "sinr": (
        "SINRParameters", "UniformPower", "MeanPower", "LinearPower", "ExplicitPower", "Channel",
        "affectance_matrix", "is_feasible",
    ),
    "core": (
        "BiTree", "Schedule", "InitialTreeBuilder", "InitialTreeResult", "ConnectivityProtocol",
        "TreeViaCapacity",
    ),
    "dynamics": (
        "DynamicScenario", "DynamicSimulator", "ChurnProcess", "RandomWalk", "RandomWaypoint",
        "LogNormalShadowing", "RayleighFading", "DeterministicPathLoss",
    ),
})
__all__ = ["__version__", *_EXPORTS.names]


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
