"""Seed-era reference implementations the parity tests and benchmarks pin against.

These are the slow-but-obvious counterparts of the vectorized paths in
``src/``: the per-listener decode loop, the per-object slot engine and the
cold-pool trial map.  They live with the tests because no production path
runs them; each is compared bit-for-bit against the implementation that
replaced it.
"""

from .decode import decode_reference
from .fabric import map_trials_cold
from .slot_engine import LegacySimulator

__all__ = ["LegacySimulator", "decode_reference", "map_trials_cold"]
