"""Leader election and root failover over the faulty transport.

When the :class:`~repro.netsim.detector.HeartbeatDetector` suspects the tree
root, the survivors must agree on a replacement before aggregation can
resume.  :class:`BullyElection` is a deterministic bully-style protocol:
every node owns a *seeded priority* - a counter hash of ``(seed, node id)``
with the id as tie-break, so the ranking is a pure function of the
configuration and identical on every node without any communication -
and candidates campaign in priority order.  A campaign posts a claim to every
believed-alive peer through a :class:`~repro.netsim.delivery.ReliableOutbox`
(ack/retry/backoff), with every claim, ack and retry drawn through the same
:class:`~repro.netsim.transport.Transport` the data plane uses, so dropped
claims are retried, crashed candidates fall through to the next rank, and the
whole history lands in the run's :class:`~repro.netsim.faults.FaultTrace`
digest.  A candidate wins on an ack quorum; every wait is bounded by the
retry policy's final deadline (RL010: no unbounded loops), so the election
*always* terminates - if no campaign reaches quorum inside its budget the
highest-priority live candidate is seated with ``converged=False``.

:func:`run_root_failover` is the recovery orchestration the experiments and
the examples drive: elect a leader among the survivors, then re-root the tree
through :meth:`~repro.core.repair.TreeRepairer.integrate` with the elected
node as ``preferred_root_id`` - the completion patch (re-attaching subtrees
the dead root orphaned) runs over the same loss environment with its fault
counters offset past the election, exactly like ``Init``'s own completion
patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..core.repair import RepairResult, TreeRepairer
from ..coins import _hash_int
from ..exceptions import ConfigurationError, NodeCrashedError
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import ExplicitPower, SINRParameters
from .delivery import ReliableOutbox, RetryPolicy
from .faults import FaultPlan
from .transport import FaultyTransport, PerfectTransport, Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bitree import BiTree

__all__ = [
    "BullyElection",
    "ElectionResult",
    "FailoverResult",
    "election_priority",
    "run_root_failover",
]

#: Domain-separation tag of the priority stream ("ELEC"), disjoint from the
#: drop/delay/crash/heartbeat streams in :mod:`repro.netsim.faults`.
_ELECTION_STREAM = 0x454C4543


def election_priority(seed: int, node_id: int) -> tuple[float, int]:
    """Seeded election priority of one node: ``(hash draw, id)``, max wins.

    A pure function of ``(seed, node_id)`` - every node computes the same
    total order with zero messages, and the id tie-break makes it strict.
    """
    # The uniform of coins._uniform_open, exact in float arithmetic on an int.
    draw = ((_hash_int(_ELECTION_STREAM, seed, node_id) >> 11) + 1.0) * 2.0**-53
    return (draw, int(node_id))


@dataclass(frozen=True)
class ElectionResult:
    """Outcome of one leader election.

    Attributes:
        leader_id: the elected node.
        rounds_used: candidate campaigns executed (1 = the top-priority live
            node won immediately).
        slots_used: total slots the campaigns occupied.
        messages: claim + ack transmissions attempted, retries included.
        retries: claim retransmissions across all campaigns.
        acks: acknowledgments the winning campaign collected.
        converged: whether the leader reached its ack quorum (``False`` only
            when every campaign's budget expired and the deterministic
            fallback seated the highest-priority live candidate).
        skipped_crashed: candidates skipped because they were down when
            their campaign would have started.
    """

    leader_id: int
    rounds_used: int
    slots_used: int
    messages: int
    retries: int
    acks: int
    converged: bool
    skipped_crashed: int


class BullyElection:
    """Deterministic bully-style election over a (possibly faulty) transport.

    Args:
        node_ids: the participants (typically the detector's alive view with
            the suspected root excluded).
        seed: stream seed of the priority hashes.
        transport: delivery policy; ``None`` means a perfect transport (the
            top-priority node then wins in one two-slot round).
        policy: claim retry budget and pacing per campaign.
        quorum: fraction of a campaign's live peers that must ack before the
            candidate wins (0.5 = majority of the believed-alive peers).
    """

    __slots__ = ("node_ids", "policy", "quorum", "seed", "transport")

    def __init__(
        self,
        node_ids: Sequence[int],
        *,
        seed: int = 0,
        transport: Transport | None = None,
        policy: RetryPolicy | None = None,
        quorum: float = 0.5,
    ) -> None:
        self.node_ids = sorted(int(i) for i in node_ids)
        if not self.node_ids:
            raise ConfigurationError("cannot elect a leader among zero nodes")
        if not 0.0 < quorum <= 1.0:
            raise ConfigurationError(f"quorum must be in (0, 1], got {quorum}")
        self.seed = seed
        self.transport = transport if transport is not None else PerfectTransport()
        self.policy = policy if policy is not None else RetryPolicy()
        self.quorum = quorum

    def ranking(self) -> list[int]:
        """All participants, highest priority first."""
        return sorted(
            self.node_ids,
            key=lambda nid: election_priority(self.seed, nid),
            reverse=True,
        )

    def elect(self, start_slot: int = 0) -> ElectionResult:
        """Run campaigns in priority order until a candidate reaches quorum."""
        if OBS.enabled:
            OBS.registry.inc("netsim.elections")
        transport = self.transport
        # Per-campaign slot budget: the final retry's deadline plus slack for
        # the last ack's round trip.  Every loop below is bounded by it.
        budget = self.policy.deadline_after(0, self.policy.max_attempts) + 16

        slot = start_slot
        rounds = messages = retries = skipped = 0
        leader: int | None = None
        winner_acks = 0
        converged = False
        with span("netsim.election", participants=len(self.node_ids)):
            for candidate in self.ranking():
                if transport.is_crashed(candidate, slot):
                    skipped += 1
                    continue
                rounds += 1
                if OBS.enabled:
                    OBS.registry.inc("netsim.election_rounds")
                peers = [
                    nid
                    for nid in self.node_ids
                    if nid != candidate and not transport.is_crashed(nid, slot)
                ]
                if not peers:
                    # Nobody left to object: the candidate seats itself.
                    leader, winner_acks, converged = candidate, 0, True
                    slot += 1
                    break
                needed = math.ceil(self.quorum * len(peers))
                acked, steps, sent, retried = self._campaign(
                    candidate, peers, slot, budget, needed
                )
                messages += sent
                retries += retried
                slot += steps
                if len(acked) >= needed:
                    leader, winner_acks, converged = candidate, len(acked), True
                    break
        if leader is None:
            # Deterministic fallback: no campaign reached quorum inside its
            # budget, so seat the best-ranked candidate still alive.
            live = [
                nid for nid in self.ranking() if not transport.is_crashed(nid, slot)
            ]
            leader = live[0] if live else self.ranking()[0]
        if OBS.enabled and converged:
            OBS.registry.inc("netsim.elections_won")
        return ElectionResult(
            leader_id=leader,
            rounds_used=rounds,
            slots_used=slot - start_slot,
            messages=messages,
            retries=retries,
            acks=winner_acks,
            converged=converged,
            skipped_crashed=skipped,
        )

    # -- internals ----------------------------------------------------------

    def _campaign(
        self,
        candidate: int,
        peers: list[int],
        round_start: int,
        budget: int,
        needed: int,
    ) -> tuple[set[int], int, int, int]:
        """One candidate's claim round; returns ``(acked, slots, msgs, retries)``.

        The campaign is a message-level replay: claims and acks are discrete
        transmissions whose fates come from :meth:`Transport.admit` draws at
        their actual slots, so the whole exchange is a pure function of the
        fault plan and lands in its trace.  ``inflight`` maps an arrival slot
        to the events maturing there (a delivered claim schedules the peer's
        ack one slot later; a delayed ack matures at its delivery slot).
        """
        transport = self.transport
        outbox = ReliableOutbox(self.policy)
        inflight: dict[int, list[tuple[str, int]]] = {}
        acked: set[int] = set()
        messages = 0
        for peer in peers:
            outbox.post(peer, ("claim", candidate), peer, round_start)
        messages += self._transmit_claims(candidate, peers, round_start, inflight)
        steps = 1
        # Bounded by the campaign budget (RL010): the retry policy's final
        # deadline plus the ack round-trip slack.
        for step in range(1, budget):
            if len(acked) >= needed:
                break
            current = round_start + step
            steps = step + 1
            for kind, peer in inflight.pop(current, ()):
                if kind == "send-ack":
                    if transport.is_crashed(peer, current):
                        continue
                    messages += 1
                    delivered, delay = transport.admit(
                        current,
                        np.array([peer], dtype=np.int64),
                        np.array([candidate], dtype=np.int64),
                    )
                    if delivered[0]:
                        lag = int(delay[0])
                        if lag == 0:
                            acked.add(peer)
                            outbox.ack(peer)
                        else:
                            inflight.setdefault(current + lag, []).append(
                                ("got-ack", peer)
                            )
                else:  # "got-ack": a delayed ack matured.
                    acked.add(peer)
                    outbox.ack(peer)
            if len(acked) >= needed:
                break
            due = outbox.due(current, strict=False)
            if due:
                targets = [send.dst_id for send in due]
                messages += self._transmit_claims(candidate, targets, current, inflight)
            if not len(outbox) and not inflight:
                # Every peer acked or exhausted its budget and nothing is in
                # the air: the tally can no longer change.
                break
        return acked, steps, messages, outbox.retries

    def _transmit_claims(
        self,
        candidate: int,
        peers: Sequence[int],
        slot: int,
        inflight: dict[int, list[tuple[str, int]]],
    ) -> int:
        """Send one claim to each peer; schedule acks for the deliveries."""
        dst = np.asarray(peers, dtype=np.int64)
        src = np.full(len(dst), candidate, dtype=np.int64)
        delivered, delay = self.transport.admit(slot, src, dst)
        for peer, ok, lag in zip(peers, delivered, delay):
            arrival = slot + int(lag)
            if ok and not self.transport.is_crashed(int(peer), arrival):
                inflight.setdefault(arrival + 1, []).append(("send-ack", int(peer)))
        return len(peers)


@dataclass(frozen=True)
class FailoverResult:
    """Outcome of a full root-failover: election + re-rooted repair.

    Attributes:
        election: the leader-election outcome.
        repair: the repair/splice outcome (re-rooted at the leader).
        tree: the repaired tree, rooted at the elected node.
        power: per-link powers of the repaired tree.
        slots_used: election slots plus the completion patch's slots.
        new_root_id: the elected root (== ``election.leader_id``).
    """

    election: ElectionResult
    repair: RepairResult
    tree: "BiTree"
    power: ExplicitPower
    slots_used: int
    new_root_id: int


def run_root_failover(
    tree: "BiTree",
    power: ExplicitPower,
    *,
    params: SINRParameters,
    constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    plan: FaultPlan | None = None,
    crashed_ids: Sequence[int] = (),
    rng: np.random.Generator,
    seed: int | None = None,
    policy: RetryPolicy | None = None,
    quorum: float = 0.5,
    start_slot: int = 0,
    max_sweeps: int = 20,
) -> FailoverResult:
    """Survive a root crash: elect a new root, re-root and repair the tree.

    The election runs among the survivors over the plan's loss environment
    (crash windows consulted at the election's actual slots); the elected
    leader is passed to :meth:`~repro.core.repair.TreeRepairer.integrate` as
    ``preferred_root_id``, and any completion patch (re-attaching the dead
    root's orphaned children) executes over the same loss environment with
    crash windows stripped and fault counters offset past the election -
    mirroring ``Init``'s own completion semantics.

    Args:
        tree: the tree whose root (and possibly other nodes) died.
        power: recorded per-link powers of ``tree``.
        params: physical-model parameters.
        constants: protocol constants forwarded to the patch ``Init``.
        plan: the fault environment (``None`` = perfect transport).
        crashed_ids: nodes known/suspected down (must include the dead root).
        rng: randomness source for the patch ``Init`` re-run.
        seed: priority-stream seed (defaults to ``plan.seed`` or 0).
        policy: claim retry policy of the election.
        quorum: ack quorum fraction of the election.
        start_slot: slot at which recovery begins; fault counters continue
            from here.
        max_sweeps: sweep budget of the patch ``Init``.

    Raises:
        NodeCrashedError: if no survivors remain to elect from.
    """
    crashed = frozenset(int(i) for i in crashed_ids)
    survivors = [nid for nid in sorted(tree.nodes) if nid not in crashed]
    if not survivors:
        raise NodeCrashedError("every node is down; no survivors to elect from")
    if plan is None or plan.faultless:
        transport: Transport = PerfectTransport()
    else:
        transport = FaultyTransport(plan, slot_offset=start_slot)
    election = BullyElection(
        survivors,
        seed=plan.seed if seed is None and plan is not None else (seed or 0),
        transport=transport,
        policy=policy,
        quorum=quorum,
    ).elect()

    # Lazy import: the patch builder lives one layer up in this package.
    from .init_builder import NetInitBuilder

    patch_plan = None if plan is None else plan.without_crashes()
    repairer = TreeRepairer(
        params,
        constants,
        patch_builder=NetInitBuilder(
            params,
            constants,
            max_sweeps,
            plan=None if patch_plan is None or patch_plan.faultless else patch_plan,
            delivery="reliable",
            slot_offset=start_slot + election.slots_used,
        ),
    )
    repair = repairer.integrate(
        tree,
        power,
        failed_ids=sorted(crashed & set(tree.nodes)),
        rng=rng,
        preferred_root_id=election.leader_id,
    )
    if OBS.enabled:
        OBS.registry.inc("netsim.reroot_splices")
    return FailoverResult(
        election=election,
        repair=repair,
        tree=repair.tree,
        power=repair.power,
        slots_used=election.slots_used + repair.slots_used,
        new_root_id=election.leader_id,
    )
