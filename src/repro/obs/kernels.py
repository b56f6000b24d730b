"""On-demand kernel timing: wrap ``KERNEL_REGISTRY`` entries with timers.

The ``@hot_kernel`` decorator is a zero-overhead identity at runtime — the
registered function object passes through untouched, so the per-slot path
never pays a wrapper frame.  :func:`instrument_kernels` preserves that
invariant by wrapping *on demand*: it swaps each registered kernel for a
timing wrapper **at its definition sites** (module attribute, class
``__dict__`` entry, ``from ... import`` aliases across ``repro.*``
modules), and :meth:`KernelInstrumentation.restore` puts the originals
back.  Uninstrumented processes are byte-for-byte the PR-5 fast path.

The wrapper itself follows the enabled-guard idiom: with telemetry off it
is one attribute load and a tail call; with telemetry on it adds two
counter bumps per call —

* ``kernel.calls{kernel=<name>}`` — invocation count,
* ``kernel.time_ns{kernel=<name>}`` — *inclusive* wall time (a kernel that
  calls another registered kernel counts the callee's time too, exactly
  like a cProfile cumtime column).

Timing never touches RNG or kernel arguments, so instrumented runs stay
bit-identical to plain runs (pinned by the parity tests and the bench's
always-on parity assert).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

from ..contracts import KERNEL_REGISTRY, _KERNEL_FUNCS
from .runtime import OBS

__all__ = [
    "KernelInstrumentation",
    "instrument_kernels",
    "kernel_timers_active",
    "uninstrument_kernels",
]

#: Modules whose import populates ``KERNEL_REGISTRY`` with every timed
#: kernel; imported up front so instrumentation coverage does not depend on
#: what the caller happened to import first.
_KERNEL_HOME_MODULES = (
    "repro.state.kernels",
    "repro.sinr.arrays",
    "repro.sinr.channel",
)

#: Registered kernels left unwrapped.  The decode arena's buffer lookup is
#: bookkeeping a decode calls several times a slot, not decode work: a
#: wrapper there would cost more than it measures.
_UNTIMED = frozenset({"repro.state.scratch:DecodeWorkspace._buffer"})

#: One patched definition site: ``setattr(owner, attr, original)`` undoes it.
_Patch = tuple[Any, str, Any]


def _timed_wrapper(kernel_name: str, func: Callable) -> Callable:
    """Build the timing wrapper for one kernel function."""
    # Counter objects are cached per registry identity so the enabled path
    # pays one `is` check instead of two keyed lookups per call.
    cached_registry: Any = None
    calls_counter: Any = None
    time_counter: Any = None

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not OBS.enabled:
            return func(*args, **kwargs)
        nonlocal cached_registry, calls_counter, time_counter
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            registry = OBS.registry
            if registry is not cached_registry:
                cached_registry = registry
                calls_counter = registry.counter("kernel.calls", kernel=kernel_name)
                time_counter = registry.counter("kernel.time_ns", kernel=kernel_name)
            calls_counter.value += 1
            time_counter.value += elapsed

    wrapper.__repro_kernel_timer__ = kernel_name  # type: ignore[attr-defined]
    return wrapper


def _defining_owner(module_name: str, qualname: str) -> tuple[Any, str] | None:
    """Resolve ``(owner, attribute)`` for a kernel's definition site."""
    module = sys.modules.get(module_name)
    if module is None:  # pragma: no cover - home modules imported above
        return None
    parts = qualname.split(".")
    owner: Any = module
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:  # pragma: no cover - registry/module drift
            return None
    return owner, parts[-1]


class KernelInstrumentation:
    """Handle over the set of patched definition sites."""

    __slots__ = ("_patches", "kernel_names")

    def __init__(self, patches: list[_Patch], kernel_names: tuple[str, ...]) -> None:
        self._patches = patches
        self.kernel_names = kernel_names

    def restore(self) -> None:
        """Put every original function object back (idempotent)."""
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "KernelInstrumentation":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


_ACTIVE: KernelInstrumentation | None = None


def kernel_timers_active() -> bool:
    """Whether :func:`instrument_kernels` wrappers are currently installed."""
    return _ACTIVE is not None


def instrument_kernels() -> KernelInstrumentation:
    """Install timing wrappers on every registered hot kernel but the
    decode arena's buffer lookup.

    Idempotent: a second call while wrappers are installed returns the
    existing handle.  Counters only accumulate while ``OBS.enabled`` is
    true, so installing wrappers ahead of time is cheap (the disabled
    branch of each wrapper) — but the truly-zero-overhead state is
    restored wrappers, which the overhead benchmark pins at <=2%.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    for module_name in _KERNEL_HOME_MODULES:
        importlib.import_module(module_name)
    patches: list[_Patch] = []
    wrappers: dict[int, Callable] = {}
    timed = sorted((key, c) for key, c in KERNEL_REGISTRY.items() if key not in _UNTIMED)
    for key, contract in timed:
        func = _KERNEL_FUNCS[key]
        wrapper = _timed_wrapper(contract.name, func)
        wrappers[id(func)] = wrapper
        site = _defining_owner(contract.module, contract.qualname)
        if site is None:  # pragma: no cover - registry/module drift
            continue
        owner, attr = site
        current = owner.__dict__.get(attr) if hasattr(owner, "__dict__") else None
        if isinstance(current, staticmethod):
            if current.__func__ is func:
                patches.append((owner, attr, current))
                setattr(owner, attr, staticmethod(wrapper))
        elif current is func:
            patches.append((owner, attr, current))
            setattr(owner, attr, wrapper)
    # `from .kernels import ...` aliases: rebind every repro module attribute
    # that still points at an original kernel function object.
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                patches.append((module, attr, value))
                setattr(module, attr, wrapper)
    _ACTIVE = KernelInstrumentation(patches, tuple(contract.name for _, contract in timed))
    return _ACTIVE


def uninstrument_kernels() -> None:
    """Restore the active instrumentation, if any (safe when none is).

    The inverse convenience of :func:`instrument_kernels` for callers that
    hold no handle - the trial-fabric worker uses it to mirror the parent's
    timer state, so a worker reused after a timed sweep goes back to the
    byte-for-byte fast path when the next sweep runs untimed.
    """
    if _ACTIVE is not None:
        _ACTIVE.restore()
