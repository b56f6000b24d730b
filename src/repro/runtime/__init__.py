"""Distributed runtime: lockstep programs, the slotted simulator, traces.

:func:`spawn_agent_rngs` children draw the streams of ``default_rng(seed)``,
but a child's ``bit_generator.seed_seq`` holds only its hashed state: it
cannot ``spawn``.
"""

from .agent import LockstepProgram
from .simulator import Simulator, spawn_agent_rngs
from .trace import ExecutionTrace, SlotRecord

__all__ = [
    "LockstepProgram",
    "Simulator",
    "spawn_agent_rngs",
    "ExecutionTrace",
    "SlotRecord",
]
