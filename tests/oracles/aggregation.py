"""The forked schedule replays (oracles of the shared replay loops).

Before the convergecast and the broadcast each became one loop driven
through a :class:`~repro.netsim.aggregation.ReplaySeam`, ``src/`` replayed
a bi-tree's schedules twice: the lockstep ``simulate_convergecast`` and
``simulate_broadcast``, and the netsim ``run_convergecast`` and
``run_dissemination`` with their inline crash filter, per-hop admission,
per-link provenance sets and two copies of the retry loop.  These are those
four loops as they were, down to ``correct`` comparing with
``abs(root - expected) < 1e-9`` (the shared loops use ``math.isclose``, so
the two agree except on sums large enough to reassociate past 1e-9).  The
parity suite compares every result field of the shared loops against them.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.analysis.latency import BroadcastOutcome, ConvergecastOutcome
from repro.core.bitree import BiTree
from repro.exceptions import ConfigurationError
from repro.netsim.aggregation import NetConvergecastResult, NetDisseminationResult
from repro.netsim.delivery import RetryPolicy
from repro.netsim.faults import FaultPlan
from repro.netsim.transport import FaultyTransport, PerfectTransport, Transport
from repro.obs.runtime import OBS
from repro.obs.spans import span
from repro.sinr import Channel, PowerAssignment, SINRParameters, Transmission

__all__ = [
    "run_convergecast_reference",
    "run_dissemination_reference",
    "simulate_broadcast_reference",
    "simulate_convergecast_reference",
]


def _make_transport(plan: FaultPlan | None, slot_offset: int) -> Transport:
    if slot_offset < 0:
        raise ConfigurationError(f"slot_offset must be non-negative, got {slot_offset}")
    if plan is None or plan.faultless:
        return PerfectTransport()
    return FaultyTransport(plan, slot_offset=slot_offset)


def _check_quorum(quorum: float) -> None:
    if not 0.0 < quorum <= 1.0:
        raise ConfigurationError(f"quorum must be in (0, 1], got {quorum}")


def simulate_convergecast_reference(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    values: Mapping[int, float] | None = None,
    combine: Callable[[float, float], float] = lambda a, b: a + b,
) -> ConvergecastOutcome:
    """Replay the aggregation schedule and aggregate values up to the root.

    Args:
        tree: the bi-tree whose aggregation schedule is replayed.
        power: power assignment used by the tree links.
        params: physical-model parameters.
        values: initial value per node id (defaults to 1.0 each, so the
            correct aggregate under addition is the number of nodes).
        combine: associative, commutative combination function.
    """
    initial = {node_id: 1.0 for node_id in tree.nodes}
    if values is not None:
        initial.update({int(k): float(v) for k, v in values.items()})
    accumulator = dict(initial)
    channel = Channel(params)
    schedule = tree.aggregation_schedule
    failed = 0
    slots = 0
    for _, group in sorted(schedule.slot_groups().items()):
        slots += 1
        transmissions = [
            Transmission(
                sender=link.sender,
                power=power.power(link),
                message=(link.sender.id, accumulator[link.sender.id]),
            )
            for link in group
        ]
        listeners = [link.receiver for link in group]
        receptions = channel.resolve(transmissions, listeners, slot=slots - 1)
        for link in group:
            reception = receptions.get(link.receiver.id)
            if reception is None or reception.sender.id != link.sender.id:
                failed += 1
                continue
            _, value = reception.message
            accumulator[link.receiver.id] = combine(accumulator[link.receiver.id], value)

    all_values = [initial[node_id] for node_id in tree.nodes]
    expected = all_values[0]
    for value in all_values[1:]:
        expected = combine(expected, value)
    root_value = accumulator[tree.root_id]
    return ConvergecastOutcome(
        slots=slots,
        root_value=root_value,
        expected_value=expected,
        correct=abs(root_value - expected) < 1e-9 and failed == 0,
        failed_links=failed,
    )


def simulate_broadcast_reference(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
) -> BroadcastOutcome:
    """Replay the dissemination schedule and flood a message from the root."""
    channel = Channel(params)
    schedule = tree.dissemination_schedule
    informed: set[int] = {tree.root_id}
    slots = 0
    for _, group in sorted(schedule.slot_groups().items()):
        slots += 1
        # One transmission per informed sender; its scheduled children listen.
        senders = {}
        for link in group:
            if link.sender.id in informed:
                senders.setdefault(link.sender.id, link)
        transmissions = [
            Transmission(sender=link.sender, power=power.power(link), message="broadcast")
            for link in senders.values()
        ]
        listeners = [link.receiver for link in group]
        receptions = channel.resolve(transmissions, listeners, slot=slots - 1)
        for link in group:
            reception = receptions.get(link.receiver.id)
            if reception is not None and reception.sender.id == link.sender.id and link.sender.id in informed:
                informed.add(link.receiver.id)
    return BroadcastOutcome(
        slots=slots,
        reached=len(informed),
        total=len(tree.nodes),
        complete=len(informed) == len(tree.nodes),
    )


def run_convergecast_reference(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    plan: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    quorum: float = 1.0,
    slot_offset: int = 0,
    values: Mapping[int, float] | None = None,
    combine: Callable[[float, float], float] = lambda a, b: a + b,
) -> NetConvergecastResult:
    """Aggregate values up the tree over the transport, retrying lost hops.

    Args:
        tree: the bi-tree whose aggregation schedule is replayed.
        power: power assignment used by the tree links.
        params: physical-model parameters.
        plan: fault configuration (``None`` = perfect transport).
        policy: per-hop retry budget (``max_attempts`` transmissions total).
        quorum: fraction of nodes whose values must reach the root for
            ``quorum_met``.
        slot_offset: added to every slot before fault hashing (chain after
            an ``Init`` run or an election).
        values: initial value per node id (defaults to 1.0 each).
        combine: associative, commutative combination function.
    """
    _check_quorum(quorum)
    transport = _make_transport(plan, slot_offset)
    retry_policy = policy if policy is not None else RetryPolicy()
    initial = {node_id: 1.0 for node_id in tree.nodes}
    if values is not None:
        initial.update({int(k): float(v) for k, v in values.items()})
    accumulator = dict(initial)
    included: dict[int, set[int]] = {node_id: {node_id} for node_id in tree.nodes}
    channel = Channel(params)
    schedule = tree.aggregation_schedule
    lost_children: list[int] = []
    physical_failures = 0
    retries = 0
    sched_slots = 0
    total_slots = 0
    with span("netsim.convergecast", n=tree.size, links=len(tree.parent)):
        for _, group in sorted(schedule.slot_groups().items()):
            sched_slots += 1
            # Snapshot values and provenance at slot start, as the oracle
            # does: a link's message carries its sender's pre-slot aggregate.
            payloads = {
                link.sender.id: (accumulator[link.sender.id], frozenset(included[link.sender.id]))
                for link in group
            }
            down = {
                link.sender.id: (
                    transport.is_crashed(link.sender.id, total_slots)
                    or transport.is_crashed(link.receiver.id, total_slots)
                )
                for link in group
            }
            transmissions = [
                Transmission(
                    sender=link.sender,
                    power=power.power(link),
                    message=(link.sender.id, payloads[link.sender.id][0]),
                )
                for link in group
                if not down[link.sender.id]
            ]
            listeners = [
                link.receiver for link in group if not down[link.sender.id]
            ]
            # The physical replay is slot-for-slot the lockstep oracle's:
            # same channel, same contention group, same slot index.
            receptions = channel.resolve(transmissions, listeners, slot=sched_slots - 1)
            pending: list = []
            for link in group:
                if down[link.sender.id]:
                    pending.append(link)
                    continue
                reception = receptions.get(link.receiver.id)
                if reception is None or reception.sender.id != link.sender.id:
                    # Pure SINR failure: the oracle does not retry these, and
                    # neither do we - parity over the zero-fault path.
                    physical_failures += 1
                    continue
                delivered, _ = transport.admit(
                    total_slots,
                    np.array([link.sender.id], dtype=np.int64),
                    np.array([link.receiver.id], dtype=np.int64),
                )
                if not delivered[0]:
                    pending.append(link)
                    continue
                _, value = reception.message
                accumulator[link.receiver.id] = combine(accumulator[link.receiver.id], value)
                included[link.receiver.id] |= payloads[link.sender.id][1]
            total_slots += 1
            # Late deliveries must land before the next scheduled slot: the
            # parent transmits its own aggregate at its own slot, so a child
            # arriving later would be silently lost.  Each pending hop gets
            # its own contention-free retry slots, bounded by the budget.
            for link in pending:
                recovered = False
                for _ in range(1, retry_policy.max_attempts):
                    retry_slot = total_slots
                    total_slots += 1
                    retries += 1
                    if OBS.enabled:
                        OBS.registry.inc("netsim.agg_retries")
                    if transport.is_crashed(link.sender.id, retry_slot) or transport.is_crashed(
                        link.receiver.id, retry_slot
                    ):
                        continue
                    payload_value, payload_ids = payloads[link.sender.id]
                    solo = channel.resolve(
                        [
                            Transmission(
                                sender=link.sender,
                                power=power.power(link),
                                message=(link.sender.id, payload_value),
                            )
                        ],
                        [link.receiver],
                        slot=retry_slot,
                    )
                    reception = solo.get(link.receiver.id)
                    if reception is None:
                        continue
                    delivered, _ = transport.admit(
                        retry_slot,
                        np.array([link.sender.id], dtype=np.int64),
                        np.array([link.receiver.id], dtype=np.int64),
                    )
                    if not delivered[0]:
                        continue
                    accumulator[link.receiver.id] = combine(
                        accumulator[link.receiver.id], payload_value
                    )
                    included[link.receiver.id] |= payload_ids
                    recovered = True
                    break
                if not recovered:
                    lost_children.append(link.sender.id)

    all_values = [initial[node_id] for node_id in tree.nodes]
    expected = all_values[0]
    for value in all_values[1:]:
        expected = combine(expected, value)
    root_value = accumulator[tree.root_id]
    contributing = frozenset(included[tree.root_id])
    missing = tuple(sorted(set(lost_children)))
    failed = physical_failures + len(missing)
    degraded = bool(missing)
    if OBS.enabled and degraded:
        OBS.registry.inc("netsim.degraded_aggregations")
    trace = getattr(transport, "trace", None)
    return NetConvergecastResult(
        slots=total_slots,
        scheduled_slots=sched_slots,
        root_value=root_value,
        expected_value=expected,
        correct=abs(root_value - expected) < 1e-9 and failed == 0,
        contributing=contributing,
        missing_subtrees=missing,
        retries=retries,
        failed_links=failed,
        degraded=degraded,
        quorum_met=len(contributing) >= quorum * len(tree.nodes),
        root_alive=not transport.is_crashed(tree.root_id, max(total_slots - 1, 0)),
        fault_summary=trace.summary() if trace is not None else {},
        fault_trace=trace,
    )


def run_dissemination_reference(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    plan: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    quorum: float = 1.0,
    slot_offset: int = 0,
) -> NetDisseminationResult:
    """Flood a message down the tree over the transport, retrying lost hops."""
    _check_quorum(quorum)
    transport = _make_transport(plan, slot_offset)
    retry_policy = policy if policy is not None else RetryPolicy()
    channel = Channel(params)
    schedule = tree.dissemination_schedule
    informed: set[int] = {tree.root_id}
    retries = 0
    sched_slots = 0
    total_slots = 0
    with span("netsim.dissemination", n=tree.size, links=len(tree.parent)):
        for _, group in sorted(schedule.slot_groups().items()):
            sched_slots += 1
            informed_at_start = frozenset(informed)
            senders = {}
            for link in group:
                if link.sender.id in informed_at_start:
                    senders.setdefault(link.sender.id, link)
            # A parent may serve several children in one slot, so the crash
            # filter is per link (endpoint pair), not per sender.
            down = {
                link.endpoint_ids: (
                    transport.is_crashed(link.sender.id, total_slots)
                    or transport.is_crashed(link.receiver.id, total_slots)
                )
                for link in group
            }
            transmissions = [
                Transmission(sender=link.sender, power=power.power(link), message="broadcast")
                for link in senders.values()
                if not transport.is_crashed(link.sender.id, total_slots)
            ]
            listeners = [link.receiver for link in group if not down[link.endpoint_ids]]
            receptions = channel.resolve(transmissions, listeners, slot=sched_slots - 1)
            pending: list = []
            for link in group:
                if link.sender.id not in informed_at_start:
                    continue
                if down[link.endpoint_ids]:
                    pending.append(link)
                    continue
                reception = receptions.get(link.receiver.id)
                if reception is None or reception.sender.id != link.sender.id:
                    continue  # pure SINR failure: not retried (oracle parity)
                delivered, _ = transport.admit(
                    total_slots,
                    np.array([link.sender.id], dtype=np.int64),
                    np.array([link.receiver.id], dtype=np.int64),
                )
                if not delivered[0]:
                    pending.append(link)
                    continue
                informed.add(link.receiver.id)
            total_slots += 1
            for link in pending:
                for _ in range(1, retry_policy.max_attempts):
                    retry_slot = total_slots
                    total_slots += 1
                    retries += 1
                    if OBS.enabled:
                        OBS.registry.inc("netsim.agg_retries")
                    if transport.is_crashed(link.sender.id, retry_slot) or transport.is_crashed(
                        link.receiver.id, retry_slot
                    ):
                        continue
                    solo = channel.resolve(
                        [
                            Transmission(
                                sender=link.sender, power=power.power(link), message="broadcast"
                            )
                        ],
                        [link.receiver],
                        slot=retry_slot,
                    )
                    reception = solo.get(link.receiver.id)
                    if reception is None:
                        continue
                    delivered, _ = transport.admit(
                        retry_slot,
                        np.array([link.sender.id], dtype=np.int64),
                        np.array([link.receiver.id], dtype=np.int64),
                    )
                    if delivered[0]:
                        informed.add(link.receiver.id)
                        break

    missing = tuple(sorted(set(tree.nodes) - informed))
    degraded = bool(missing)
    if OBS.enabled and degraded:
        OBS.registry.inc("netsim.degraded_aggregations")
    trace = getattr(transport, "trace", None)
    return NetDisseminationResult(
        slots=total_slots,
        scheduled_slots=sched_slots,
        reached=len(informed),
        total=len(tree.nodes),
        complete=len(informed) == len(tree.nodes),
        missing=missing,
        retries=retries,
        degraded=degraded,
        quorum_met=len(informed) >= quorum * len(tree.nodes),
        fault_summary=trace.summary() if trace is not None else {},
        fault_trace=trace,
    )
