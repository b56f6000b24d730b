"""Latency of convergecast, broadcast and pairwise communication on a bi-tree.

The bi-tree property (Definition 1) promises that once the structure and its
schedule exist, an aggregation (convergecast), a broadcast, and any node-to-
node message all complete within (twice) the schedule length.  These
simulations *replay* a bi-tree's schedule on the real SINR channel and check
that promise: every slot's transmissions are resolved physically, values are
combined at parents (or forwarded to children), and the outcome is compared
with the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..core.bitree import BiTree
from ..sinr import Channel, PowerAssignment, SINRParameters, Transmission

__all__ = [
    "ConvergecastOutcome",
    "BroadcastOutcome",
    "PairwiseOutcome",
    "simulate_convergecast",
    "simulate_broadcast",
    "pairwise_latency",
]


@dataclass(frozen=True)
class ConvergecastOutcome:
    """Result of replaying an aggregation schedule.

    Attributes:
        slots: number of channel slots replayed (the convergecast latency).
        root_value: the aggregate the root ended up with.
        expected_value: the true aggregate over all nodes.
        correct: whether the two coincide.
        failed_links: number of tree links whose transmission failed.
    """

    slots: int
    root_value: float
    expected_value: float
    correct: bool
    failed_links: int


@dataclass(frozen=True)
class BroadcastOutcome:
    """Result of replaying a dissemination schedule.

    Attributes:
        slots: number of channel slots replayed (the broadcast latency).
        reached: number of nodes that received the root's message.
        total: number of nodes that should have received it.
        complete: whether every node was reached.
    """

    slots: int
    reached: int
    total: int
    complete: bool


@dataclass(frozen=True)
class PairwiseOutcome:
    """Latency of a source-to-destination message routed through the root."""

    slots: int
    delivered: bool


def simulate_convergecast(
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


def simulate_broadcast(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    payload: object = "broadcast",
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
            Transmission(sender=link.sender, power=power.power(link), message=payload)
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


def pairwise_latency(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    source_id: int,
    destination_id: int,
) -> PairwiseOutcome:
    """Latency of sending one message from ``source_id`` to ``destination_id``.

    The bi-tree routes any pairwise message by aggregating it to the root and
    broadcasting it back down, so the latency is the sum of the two replay
    lengths; delivery is checked by replaying both phases physically.
    """
    if source_id not in tree.nodes or destination_id not in tree.nodes:
        raise KeyError("source and destination must be tree nodes")
    up = simulate_convergecast(
        tree,
        power,
        params,
        values={node_id: (1.0 if node_id == source_id else 0.0) for node_id in tree.nodes},
        combine=max,
    )
    down = simulate_broadcast(tree, power, params, payload=("relay", source_id))
    delivered = up.correct and down.complete
    return PairwiseOutcome(slots=up.slots + down.slots, delivered=delivered)
