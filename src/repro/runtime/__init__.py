"""Distributed runtime: lockstep programs, the slotted simulator, traces.

:func:`spawn_agent_rngs` children draw the streams of ``default_rng(seed)``,
but a child's ``bit_generator.seed_seq`` holds only its hashed state: it
cannot ``spawn``.
"""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "agent": ("LockstepProgram",),
    "simulator": ("Simulator", "spawn_agent_rngs"),
    "trace": ("ExecutionTrace", "SlotRecord"),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
