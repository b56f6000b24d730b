"""Latency of convergecast, broadcast and pairwise communication on a bi-tree.

The bi-tree property (Definition 1) promises that once the structure and its
schedule exist, an aggregation (convergecast), a broadcast, and any node-to-
node message all complete within (twice) the schedule length.  These
functions check that promise in lockstep: they run the schedule replays of
:mod:`repro.netsim.aggregation` through the lockstep
:class:`~repro.netsim.aggregation.ReplaySeam` - every scheduled slot resolved
physically, every decoded hop delivered, nothing retried - and report the
outcome against the ground truth.  The netsim entries run the same loops over
a faulty transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..core.bitree import BiTree
from ..netsim.aggregation import ReplaySeam, replay_broadcast, replay_convergecast
from ..sinr import PowerAssignment, SINRParameters

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
            correct aggregate under addition is the number of nodes); an id
            outside the tree raises :class:`~repro.exceptions.ConfigurationError`.
        combine: associative, commutative combination function.
    """
    replay = replay_convergecast(tree, power, params, ReplaySeam(), values, combine)
    return ConvergecastOutcome(
        slots=replay.slots,
        root_value=replay.root_value,
        expected_value=replay.expected_value,
        correct=replay.correct,
        failed_links=len(replay.failed),
    )


def simulate_broadcast(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
) -> BroadcastOutcome:
    """Replay the dissemination schedule and flood a message from the root.

    Who hears the message does not depend on its content, so none is given.
    """
    slots, informed = replay_broadcast(tree, power, params, ReplaySeam())
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
    down = simulate_broadcast(tree, power, params)
    delivered = up.correct and down.complete
    return PairwiseOutcome(slots=up.slots + down.slots, delivered=delivered)
