"""Seed-era reference implementations the parity tests and benchmarks pin against.

These are the slow-but-obvious counterparts of the vectorized paths in
``src/``: the per-listener decode loop, the per-agent protocol form and the
two engines that step it (the per-object slot engine and the per-agent
netsim runtime), the per-agent ``Init`` (lockstep and over netsim), the
cold-pool trial map, the per-node netsim fault loops, the quadratic
bi-tree checks with the networkx MST, the all-pairs diameter scan, the
netsim ``Distr-Cap`` builder's forked phase loop, the four forked schedule
replays (lockstep and netsim, convergecast and broadcast), mean-power
sampling's object-path slot pair, and the object-level single-link
threshold test.
They live with the tests because no production path runs them; each is compared
bit-for-bit against the implementation that replaced it.
"""

from .agent import AckMessage, BroadcastMessage, NodeAgent
from .aggregation import (
    run_convergecast_reference,
    run_dissemination_reference,
    simulate_broadcast_reference,
    simulate_convergecast_reference,
)
from .decode import decode_reference, link_succeeds
from .distr_cap import ReferenceNetDistrCapBuilder
from .fabric import map_trials_cold
from .geometry import diameter_reference
from .init import InitAgent, build_init_reference, build_net_init_reference
from .mean_power import ReferenceMeanPowerSelector
from .netsim import OracleFaultyTransport, OracleHeartbeatDetector, OracleNetSimulator
from .slot_engine import LegacySimulator
from .validation import (
    euclidean_mst_tree_reference,
    is_strongly_connected_reference,
    validate_aggregation_order_reference,
    validate_reference,
)

__all__ = [
    "AckMessage",
    "BroadcastMessage",
    "InitAgent",
    "LegacySimulator",
    "NodeAgent",
    "OracleFaultyTransport",
    "OracleHeartbeatDetector",
    "OracleNetSimulator",
    "ReferenceMeanPowerSelector",
    "ReferenceNetDistrCapBuilder",
    "build_init_reference",
    "build_net_init_reference",
    "decode_reference",
    "diameter_reference",
    "euclidean_mst_tree_reference",
    "is_strongly_connected_reference",
    "link_succeeds",
    "map_trials_cold",
    "run_convergecast_reference",
    "run_dissemination_reference",
    "simulate_broadcast_reference",
    "simulate_convergecast_reference",
    "validate_aggregation_order_reference",
    "validate_reference",
]
