"""Fault-injected message-passing runtime (``repro.netsim``).

The lockstep :class:`~repro.runtime.simulator.Simulator` assumes a perfect
stack: every decoded message is delivered in its slot and nodes never die.
This package steps the *same* lockstep programs over an explicit transport
that can drop, delay, partition and crash - with every fault drawn from
stateless counter-hashed randomness, so a fault trace is bit-reproducible
across runs, scheduling orders and worker counts.  Composed with a perfect
transport the runtime reduces exactly to the lockstep engine, which
therefore stays the oracle for everything the faults perturb.

Layers (bottom up): :mod:`.faults` (seeded fault models), :mod:`.transport`
(delivery policy), :mod:`.detector` (heartbeat failure detection),
:mod:`.runtime` (the :class:`NetSimulator` engine), :mod:`.delivery`
(ack/retry/backoff reliable mode), :mod:`.driver` (quorum-or-timeout round
advancement), :mod:`.init_builder` (``Init`` over the lossy transport,
with crash damage repaired through :class:`~repro.core.repair.TreeRepairer`),
:mod:`.election` (bully-style leader election and root failover),
:mod:`.distr_cap_builder` (``Distr-Cap`` selection over the transport) and
:mod:`.aggregation` (convergecast/dissemination with per-hop retry budgets
and an explicit partial-result degradation contract).
"""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "faults": (
        "CrashSchedule", "CrashWindow", "FaultPlan", "FaultTrace", "LatencyModel", "Partition",
    ),
    "transport": ("FaultyTransport", "PerfectTransport", "Transport"),
    "detector": ("HeartbeatDetector",),
    "runtime": ("NetSimulator",),
    "delivery": ("OutstandingSend", "ReliableOutbox", "RetryPolicy"),
    "driver": ("RoundDriver",),
    "init_builder": ("DELIVERY_MODES", "NetInitBuilder", "NetInitResult"),
    "election": (
        "BullyElection", "ElectionResult", "FailoverResult", "election_priority",
        "run_root_failover",
    ),
    "distr_cap_builder": ("NetDistrCapBuilder", "NetDistrCapResult"),
    "aggregation": (
        "NetConvergecastResult", "NetDisseminationResult", "run_convergecast", "run_dissemination",
    ),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
