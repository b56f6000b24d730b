"""Schedule replays: convergecast and broadcast on the SINR channel, in
lockstep or over a faulty transport.

The bi-tree property (Definition 1) promises that an aggregation
(convergecast) and a broadcast each complete within the schedule length.
:func:`replay_convergecast` and :func:`replay_broadcast` are the one loop per
direction that checks it: each scheduled slot is resolved physically at its
schedule index, values are combined at parents in schedule order (or the
message forwarded to children), and the outcome is compared with the ground
truth.  A :class:`ReplaySeam` decides which endpoints are down, which
decoded hops are delivered and whether a lost hop lands on retry; its base
is the lockstep replay of :mod:`repro.analysis.latency` (nobody down, every
decoded hop delivered, nothing retried).

:func:`run_convergecast` / :func:`run_dissemination` run the same loops
through a fault seam over a :class:`~repro.netsim.transport.Transport`.  A
hop the *transport* interfered with (a dropped delivery, a crashed endpoint)
is retried in dedicated extra slots under a per-hop
:class:`~repro.netsim.delivery.RetryPolicy` budget, serially and
contention-free, before the next scheduled slot fires - a parent transmits
its accumulated value at its own slot, so late child deliveries must land
first or be declared lost.  Pure SINR failures are deliberately *not*
retried, so a zero-fault run is the lockstep replay: same slots, bitwise the
same root value, same failure counts.

Degradation contract: a hop that exhausts its retry budget makes the child's
whole subtree *missing* - its value simply never reaches the root.  Missing
subtree roots are reported explicitly (``missing_subtrees``), the surviving
fraction is checked against a ``quorum``, and the run always terminates
(every loop is bounded by the schedule and the retry budget - RL010).
Nothing is ever silently dropped: ``contributing`` lists exactly whose
values the root's aggregate contains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..core.bitree import BiTree
from ..exceptions import ConfigurationError
from ..links import Link
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import CachedChannel, PowerAssignment, SINRParameters
from ..state import TiledNetworkState
from .delivery import RetryPolicy
from .faults import FaultPlan, FaultRecord, FaultTrace
from .transport import FaultyTransport, PerfectTransport, Transport

__all__ = [
    "AggregationReplay",
    "NetConvergecastResult",
    "NetDisseminationResult",
    "ReplaySeam",
    "replay_broadcast",
    "replay_convergecast",
    "run_convergecast",
    "run_dissemination",
]

@dataclass(frozen=True)
class NetConvergecastResult(FaultRecord):
    """Convergecast outcome over the message runtime.

    Attributes:
        slots: total channel slots, retry slots included.
        scheduled_slots: schedule-replay slots (the lockstep latency).
        root_value: the aggregate the root ended up with.
        expected_value: the true aggregate over all nodes.
        correct: full fidelity - every value reached the root.
        contributing: ids whose values the root's aggregate contains.
        missing_subtrees: subtree roots whose aggregates were lost (their
            hop exhausted the retry budget, or the subtree hangs below one
            that did).
        retries: per-hop retransmissions across the run.
        failed_links: hops that never delivered (transport timeouts plus
            pure physical failures).
        degraded: whether anything was lost.
        quorum_met: whether ``len(contributing) / n`` reached the quorum.
        root_alive: whether the root was up when the run ended.
        fault_summary: transport counters.
        fault_trace: the faults the transport injected (``None`` on a
            perfect transport); ``fault_digest`` is its fingerprint.
    """

    slots: int
    scheduled_slots: int
    root_value: float
    expected_value: float
    correct: bool
    contributing: frozenset[int]
    missing_subtrees: tuple[int, ...]
    retries: int
    failed_links: int
    degraded: bool
    quorum_met: bool
    root_alive: bool
    fault_summary: dict[str, int] = field(default_factory=dict)
    fault_trace: FaultTrace | None = field(default=None, repr=False)


@dataclass(frozen=True)
class NetDisseminationResult(FaultRecord):
    """Broadcast outcome over the message runtime.

    Attributes:
        slots: total channel slots, retry slots included.
        scheduled_slots: schedule-replay slots (the lockstep latency).
        reached: nodes that received the root's message.
        total: nodes that should have received it.
        complete: whether every node was reached.
        missing: ids the flood never reached.
        retries: per-hop retransmissions across the run.
        degraded: whether anything was lost.
        quorum_met: whether ``reached / total`` reached the quorum.
        fault_summary: transport counters.
        fault_trace: the faults the transport injected (``None`` on a
            perfect transport); ``fault_digest`` is its fingerprint.
    """

    slots: int
    scheduled_slots: int
    reached: int
    total: int
    complete: bool
    missing: tuple[int, ...]
    retries: int
    degraded: bool
    quorum_met: bool
    fault_summary: dict[str, int] = field(default_factory=dict)
    fault_trace: FaultTrace | None = field(default=None, repr=False)


@dataclass(frozen=True)
class AggregationReplay:
    """What one convergecast replay did.

    Attributes:
        slots: scheduled slots replayed.
        root_value: the aggregate the root ended up with.
        expected_value: the true aggregate, combined in node order.
        correct: the two agree up to floating-point reassociation, and no
            hop failed or was lost.
        failed: hops the channel did not decode (never retried).
        lost: hops the seam did not deliver, retries included.
    """

    slots: int
    root_value: float
    expected_value: float
    correct: bool
    failed: tuple[Link, ...]
    lost: tuple[Link, ...]


class ReplaySeam:
    """The per-slot hooks of the schedule replays.  This base is the lockstep
    seam: no endpoint is down, every decoded hop is delivered, and nothing
    is retried."""

    __slots__ = ()

    def down(self) -> frozenset[int]:
        """Ids down at the next scheduled slot; their links sit it out."""
        return frozenset()

    def deliver(self, hops: list[Link]) -> frozenset[tuple[int, int]]:
        """Close the scheduled slot; the endpoint pairs of the decoded
        ``hops`` whose delivery was lost."""
        return frozenset()

    def retry(self, link: Link, channel: CachedChannel) -> bool:
        """Resend a hop the slot did not deliver, decoding on the replay's
        ``channel``; whether it landed."""
        return False


def _replay_channel(tree: BiTree, params: SINRParameters) -> CachedChannel:
    """One replay's channel: a tiled store over the tree's links, which
    computes the sender x receiver rectangles from coordinates."""
    return CachedChannel(params, state=TiledNetworkState.from_links(tree.aggregation_schedule))


def _delivered(hops: list[Link], lost: frozenset[tuple[int, int]]) -> list[Link]:
    """``hops``, in order, whose delivery was not lost."""
    if not lost:
        return hops
    return [link for link in hops if link.endpoint_ids not in lost]


def _stalled(
    links: list[Link], down: frozenset[int], lost: frozenset[tuple[int, int]]
) -> list[Link]:
    """``links``, in order, that sat the slot out or whose delivery was lost."""
    if not (down or lost):
        return []
    return [
        link
        for link in links
        if link.endpoint_ids in lost or not down.isdisjoint(link.endpoint_ids)
    ]


def replay_convergecast(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    seam: ReplaySeam,
    values: Mapping[int, float] | None,
    combine: Callable[[float, float], float],
) -> AggregationReplay:
    """Replay the aggregation schedule and aggregate values up to the root.

    Each hop carries its sender's aggregate as it stood when the slot began;
    a retried hop resends that same value before the next scheduled slot.

    Raises:
        ConfigurationError: if ``values`` names an id outside the tree.
    """
    initial = dict.fromkeys(tree.nodes, 1.0)
    if values is not None:
        given = {int(k): float(v) for k, v in values.items()}
        foreign = [node_id for node_id in given if node_id not in initial]
        if foreign:
            raise ConfigurationError(f"values name id {min(foreign)}, which is not a tree node")
        initial.update(given)
    accumulator = dict(initial)
    channel = _replay_channel(tree, params)
    failed: list[Link] = []
    lost: list[Link] = []
    slots = 0
    for _, group in sorted(tree.aggregation_schedule.slot_groups().items()):
        down = seam.down()
        live = [link for link in group if down.isdisjoint(link.endpoint_ids)] if down else group
        heard = channel.decoded_senders(
            [link.sender.id for link in live],
            [power.power(link) for link in live],
            [link.receiver.id for link in live],
            slots,
        )
        slots += 1
        hops: list[Link] = []
        for link in live:
            if heard.get(link.receiver.id) == link.sender.id:
                hops.append(link)
            else:
                failed.append(link)  # a pure SINR failure: never retried
        dropped = seam.deliver(hops)
        resend = [(link, accumulator[link.sender.id]) for link in _stalled(group, down, dropped)]
        # A sender transmits all slot (half-duplex), so no hop of this slot
        # changes its aggregate: it delivers the value the slot began with.
        for link in _delivered(hops, dropped):
            accumulator[link.receiver.id] = combine(
                accumulator[link.receiver.id], accumulator[link.sender.id]
            )
        for link, value in resend:
            if seam.retry(link, channel):
                accumulator[link.receiver.id] = combine(accumulator[link.receiver.id], value)
            else:
                lost.append(link)

    totals = iter(initial.values())
    expected = next(totals)
    for value in totals:
        expected = combine(expected, value)
    root_value = accumulator[tree.root_id]
    return AggregationReplay(
        slots=slots,
        root_value=root_value,
        expected_value=expected,
        correct=math.isclose(root_value, expected, rel_tol=1e-9, abs_tol=1e-9)
        and not failed
        and not lost,
        failed=tuple(failed),
        lost=tuple(lost),
    )


def replay_broadcast(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    seam: ReplaySeam,
) -> tuple[int, set[int]]:
    """Replay the dissemination schedule, flooding a message from the root.

    Returns the scheduled slots and the ids the message reached; who hears
    it does not depend on its content.
    """
    channel = _replay_channel(tree, params)
    informed = {tree.root_id}
    slots = 0
    for _, group in sorted(tree.dissemination_schedule.slot_groups().items()):
        down = seam.down()
        up = [link for link in group if down.isdisjoint(link.endpoint_ids)] if down else group
        # Only senders informed when the slot begins forward the message.  A
        # parent serving several children in one slot transmits once, and
        # does so even when a child is down: the crash filter of a sender is
        # its own, that of a hop both endpoints.
        active = [link for link in group if link.sender.id in informed]
        senders: dict[int, Link] = {}
        for link in active:
            if link.sender.id not in down:
                senders.setdefault(link.sender.id, link)
        heard = channel.decoded_senders(
            list(senders),
            [power.power(link) for link in senders.values()],
            [link.receiver.id for link in up],
            slots,
        )
        slots += 1
        hops = [link for link in up if heard.get(link.receiver.id) == link.sender.id]
        dropped = seam.deliver(hops)
        resend = _stalled(active, down, dropped)
        informed.update(link.receiver.id for link in _delivered(hops, dropped))
        for link in resend:
            if seam.retry(link, channel):
                informed.add(link.receiver.id)
    return slots, informed


@dataclass(eq=False)
class _FaultSeam(ReplaySeam):
    """The replay hooks over a transport, with one run's slot clock.

    Scheduled slots and retry slots share ``clock``, the slot index the
    transport hashes; the channel decodes scheduled slots at their schedule
    index and retry slots at their clock index.  Each scheduled slot's hops
    go to the transport in one ``admit`` call, in hop order.
    """

    transport: Transport
    power: PowerAssignment
    max_attempts: int
    clock: int = 0
    retries: int = 0

    def down(self) -> frozenset[int]:
        return self.transport.crashed_ids(self.clock)

    def deliver(self, hops: list[Link]) -> frozenset[tuple[int, int]]:
        slot = self.clock
        self.clock += 1
        if not hops:
            return frozenset()
        admitted = self._admit(slot, hops)
        return frozenset(link.endpoint_ids for link, ok in zip(hops, admitted) if not ok)

    def retry(self, link: Link, channel: CachedChannel) -> bool:
        """Each attempt is one contention-free slot, bounded by the budget."""
        for _ in range(1, self.max_attempts):
            slot = self.clock
            self.clock += 1
            self.retries += 1
            if OBS.enabled:
                OBS.registry.inc("netsim.agg_retries")
            if not self.transport.crashed_ids(slot).isdisjoint(link.endpoint_ids):
                continue
            solo = channel.decoded_senders(
                [link.sender.id], [self.power.power(link)], [link.receiver.id], slot
            )
            if solo and self._admit(slot, [link])[0]:
                return True
        return False

    def _admit(self, slot: int, hops: list[Link]) -> list[bool]:
        """The transport's verdict on each of ``hops``, decoded at ``slot``."""
        delivered, _ = self.transport.admit(
            slot,
            np.array([link.sender.id for link in hops], dtype=np.int64),
            np.array([link.receiver.id for link in hops], dtype=np.int64),
        )
        return delivered.tolist()


def _fault_seam(
    plan: FaultPlan | None,
    policy: RetryPolicy | None,
    quorum: float,
    slot_offset: int,
    power: PowerAssignment,
) -> _FaultSeam:
    """The fault seam of one netsim replay, after checking its knobs."""
    if not 0.0 < quorum <= 1.0:
        raise ConfigurationError(f"quorum must be in (0, 1], got {quorum}")
    if slot_offset < 0:
        raise ConfigurationError(f"slot_offset must be non-negative, got {slot_offset}")
    transport: Transport = PerfectTransport()
    if plan is not None and not plan.faultless:
        transport = FaultyTransport(plan, slot_offset=slot_offset)
    max_attempts = (policy if policy is not None else RetryPolicy()).max_attempts
    return _FaultSeam(transport, power, max_attempts)


def _contributing(tree: BiTree, dead: set[tuple[int, int]]) -> frozenset[int]:
    """Ids whose values the root's aggregate contains.

    A value travels up a chain of delivered hops, each scheduled before the
    next one: a parent sends its aggregate as it stood when its own slot
    began, so a child's value (retried or not) rides along only if the
    child's slot comes first.  Walking the schedule from its last slot back,
    ``onward[v]`` is the slot of v's latest hop that carries it to the root.
    """
    onward: dict[int, float] = {tree.root_id: math.inf}
    for link, slot in sorted(tree.aggregation_schedule.items(), key=lambda item: -item[1]):
        if link.endpoint_ids not in dead and onward.get(link.receiver.id, -math.inf) > slot:
            onward.setdefault(link.sender.id, slot)
    return frozenset(onward)


def run_convergecast(
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
        values: initial value per node id (defaults to 1.0 each); an id
            outside the tree raises :class:`ConfigurationError`.
        combine: associative, commutative combination function.
    """
    seam = _fault_seam(plan, policy, quorum, slot_offset, power)
    with span("netsim.convergecast", n=tree.size, links=len(tree.parent)):
        replay = replay_convergecast(tree, power, params, seam, values, combine)
    contributing = _contributing(tree, {link.endpoint_ids for link in replay.failed + replay.lost})
    missing = tuple(sorted({link.sender.id for link in replay.lost}))
    degraded = bool(missing)
    if OBS.enabled and degraded:
        OBS.registry.inc("netsim.degraded_aggregations")
    trace = getattr(seam.transport, "trace", None)
    return NetConvergecastResult(
        slots=seam.clock,
        scheduled_slots=replay.slots,
        root_value=replay.root_value,
        expected_value=replay.expected_value,
        correct=replay.correct,
        contributing=contributing,
        missing_subtrees=missing,
        retries=seam.retries,
        failed_links=len(replay.failed) + len(missing),
        degraded=degraded,
        quorum_met=len(contributing) >= quorum * len(tree.nodes),
        root_alive=not seam.transport.is_crashed(tree.root_id, max(seam.clock - 1, 0)),
        fault_summary=trace.summary() if trace is not None else {},
        fault_trace=trace,
    )


def run_dissemination(
    tree: BiTree,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    plan: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    quorum: float = 1.0,
    slot_offset: int = 0,
) -> NetDisseminationResult:
    """Flood a message down the tree over the transport, retrying lost hops.

    Who hears the message does not depend on its content, so none is given.
    """
    seam = _fault_seam(plan, policy, quorum, slot_offset, power)
    with span("netsim.dissemination", n=tree.size, links=len(tree.parent)):
        scheduled, informed = replay_broadcast(tree, power, params, seam)
    missing = tuple(sorted(set(tree.nodes) - informed))
    degraded = bool(missing)
    if OBS.enabled and degraded:
        OBS.registry.inc("netsim.degraded_aggregations")
    trace = getattr(seam.transport, "trace", None)
    return NetDisseminationResult(
        slots=seam.clock,
        scheduled_slots=scheduled,
        reached=len(informed),
        total=len(tree.nodes),
        complete=len(informed) == len(tree.nodes),
        missing=missing,
        retries=seam.retries,
        degraded=degraded,
        quorum_met=len(informed) >= quorum * len(tree.nodes),
        fault_summary=trace.summary() if trace is not None else {},
        fault_trace=trace,
    )
