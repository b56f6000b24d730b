"""Distributed runtime: agents, messages, lock-step slotted simulator."""

from .agent import LockstepProgram, NodeAgent
from .message import AckMessage, BroadcastMessage, DataMessage
from .simulator import Simulator, spawn_agent_rngs
from .trace import ColumnarTrace, ExecutionTrace, SlotRecord

__all__ = [
    "LockstepProgram",
    "NodeAgent",
    "BroadcastMessage",
    "AckMessage",
    "DataMessage",
    "Simulator",
    "spawn_agent_rngs",
    "ColumnarTrace",
    "ExecutionTrace",
    "SlotRecord",
]
