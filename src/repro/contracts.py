"""Hot-kernel contract registry.

A *hot kernel* is a function on the per-slot decode path whose behaviour is
pinned by three contracts (established in PRs 4–5):

* it does not allocate at steady state — scratch comes from a
  :class:`~repro.state.DecodeWorkspace` arena and results are written through
  ``out=`` (kernels registered with ``allocates=True`` are exempt: they
  *produce* a fresh array by design, e.g. the geometry constructors);
* its ``out=`` destinations never alias a read operand;
* it has a parity **oracle** — a slow-but-obvious reference counterpart that
  at least one test compares against bit-for-bit.

:func:`hot_kernel` records those facts.  It is a zero-overhead identity
decorator at runtime (the function object passes through untouched, no
wrapper frame on the hot path); its value is the metadata:

* ``tools/repro_lint`` detects the decorator *statically* — rule RL001 bans
  allocation idioms inside registered kernels and rule RL005 demands the
  declared oracle be co-tested;
* :data:`KERNEL_REGISTRY` exposes the same facts at runtime so tests can
  enumerate every registered kernel and assert registry/linter agreement.

Registering a new kernel means adding one decorator line::

    @hot_kernel(oracle="pairwise_distances")
    def distance_rect_from_xy(...): ...

and the lint gate starts enforcing the contracts on it immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = ["KernelContract", "KERNEL_REGISTRY", "hot_kernel", "kernel_function"]

_F = TypeVar("_F", bound=Callable)


@dataclass(frozen=True)
class KernelContract:
    """Registered facts about one hot kernel."""

    name: str
    qualname: str
    module: str
    oracle: str | None
    allocates: bool


#: qualified name (``module:qualname``) -> contract, populated at import time.
KERNEL_REGISTRY: dict[str, KernelContract] = {}

#: qualified name -> the raw registered function object.  Consumed by
#: ``repro.obs.kernels.instrument_kernels`` to build timing wrappers without
#: re-resolving qualnames; not public API beyond :func:`kernel_function`.
_KERNEL_FUNCS: dict[str, Callable] = {}


def kernel_function(key: str) -> Callable:
    """The raw function registered under ``key`` (``module:qualname``)."""
    return _KERNEL_FUNCS[key]


def hot_kernel(*, oracle: str | None = None, allocates: bool = False) -> Callable[[_F], _F]:
    """Register a function as a hot kernel; returns it unchanged.

    Args:
        oracle: name of the reference counterpart a parity test compares
            against (required by RL005 for public kernels).
        allocates: ``True`` for kernels whose job *is* to produce a fresh
            array (geometry constructors, the arena's own grower); exempts
            the function from RL001's no-allocation check.
    """

    def register(func: _F) -> _F:
        target = getattr(func, "__func__", func)  # unwrap staticmethod
        contract = KernelContract(
            name=target.__name__,
            qualname=target.__qualname__,
            module=target.__module__,
            oracle=oracle,
            allocates=allocates,
        )
        key = f"{contract.module}:{contract.qualname}"
        KERNEL_REGISTRY[key] = contract
        _KERNEL_FUNCS[key] = target
        return func

    return register
