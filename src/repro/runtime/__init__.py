"""Distributed runtime: lockstep programs, the slotted simulator, traces."""

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
