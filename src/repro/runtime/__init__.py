"""Distributed runtime: lockstep programs, the slotted simulator, traces.

The runtime draws no randomness.  A program's coins are counter hashes of
``(stream tag, seed, node id, slot)`` (:mod:`repro.coins`), so they do not
depend on the order the engine polls nodes in.
"""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "agent": ("LockstepProgram",),
    "simulator": ("Simulator",),
    "trace": ("ExecutionTrace", "SlotRecord"),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
