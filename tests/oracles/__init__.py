"""Seed-era reference implementations the parity tests and benchmarks pin against.

These are the slow-but-obvious counterparts of the vectorized paths in
``src/``: the per-listener decode loop, the per-object slot engine, the
per-agent ``Init`` (lockstep and over netsim), the cold-pool trial map and the per-node netsim
fault loops.  They live with the tests because no production path
runs them; each is compared bit-for-bit against the implementation that
replaced it.
"""

from .decode import decode_reference
from .fabric import map_trials_cold
from .init import InitAgent, build_init_reference, build_net_init_reference
from .netsim import OracleFaultyTransport, OracleHeartbeatDetector, OracleNetSimulator
from .slot_engine import LegacySimulator

__all__ = [
    "InitAgent",
    "LegacySimulator",
    "OracleFaultyTransport",
    "OracleHeartbeatDetector",
    "OracleNetSimulator",
    "build_init_reference",
    "build_net_init_reference",
    "decode_reference",
    "map_trials_cold",
]
