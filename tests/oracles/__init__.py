"""Seed-era reference implementations the parity tests and benchmarks pin against.

These are the slow-but-obvious counterparts of the vectorized paths in
``src/``: the per-listener decode loop, the per-agent protocol form and the
two engines that step it (the per-object slot engine and the per-agent
netsim runtime), the per-agent ``Init`` (lockstep and over netsim), the
cold-pool trial map, the per-node netsim fault loops and the per-call
fault draws the fault tables replaced, the quadratic
bi-tree checks with the networkx MST, the all-pairs diameter scan, the
netsim ``Distr-Cap`` builder's forked phase loop, ``Distr-Cap`` and
mean-power sampling on link objects (before they selected by position) with
the link cache's affectance block they read, the
four forked schedule replays (lockstep and netsim, convergecast and
broadcast), mean-power sampling's object-path slot pair, TreeViaCapacity's
iteration over Init's tree as link objects, and the object-level single-link threshold test.
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
from .distr_cap import LinkPathDistrCapSelector, ReferenceNetDistrCapBuilder, link_affectance_block
from .fabric import map_trials_cold
from .geometry import diameter_reference
from .init import InitAgent, build_init_reference, build_net_init_reference, eager_result_values
from .mean_power import LinkPathMeanPowerSelector, ReferenceMeanPowerSelector
from .netsim import (
    OracleFaultyTransport,
    OracleHeartbeatDetector,
    OracleNetSimulator,
    crashed_ids_scan,
    dropped_per_call,
    heartbeat_lost_per_slot,
    severs_per_call,
)
from .slot_engine import LegacySimulator
from .tvc import ReferenceTreeViaCapacity
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
    "LinkPathDistrCapSelector",
    "LinkPathMeanPowerSelector",
    "NodeAgent",
    "OracleFaultyTransport",
    "OracleHeartbeatDetector",
    "OracleNetSimulator",
    "ReferenceMeanPowerSelector",
    "ReferenceNetDistrCapBuilder",
    "ReferenceTreeViaCapacity",
    "build_init_reference",
    "build_net_init_reference",
    "crashed_ids_scan",
    "decode_reference",
    "diameter_reference",
    "dropped_per_call",
    "eager_result_values",
    "euclidean_mst_tree_reference",
    "heartbeat_lost_per_slot",
    "is_strongly_connected_reference",
    "link_affectance_block",
    "link_succeeds",
    "map_trials_cold",
    "run_convergecast_reference",
    "run_dissemination_reference",
    "severs_per_call",
    "simulate_broadcast_reference",
    "simulate_convergecast_reference",
    "validate_aggregation_order_reference",
    "validate_reference",
]
