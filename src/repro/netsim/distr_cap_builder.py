"""``Distr-Cap`` over the faulty transport: phased selection that survives.

:class:`NetDistrCapBuilder` runs the exact phased selection of
:class:`~repro.core.distr_cap.DistrCapSelector` - same phase partition, same
slot-pair structure, same affectance arithmetic and the same RNG consumption
- but threads every phase through a :class:`~repro.netsim.transport
.Transport`:

* a candidate whose endpoint is **crashed** at a phase slot sits that slot
  out (it cannot transmit or measure), so crashes thin the competition
  mid-phase instead of wedging it;
* each phase's winners **announce** their membership in ``T'`` to a
  coordinator node.  The first announcement piggybacks on the phase's dual
  slot; a dropped announcement is retried in dedicated extra slots under the
  :class:`~repro.netsim.delivery.RetryPolicy` budget, and a winner whose
  every announcement is lost falls out of ``T'`` (its endpoints stay free
  for later phases) - reported, never silent.

Under a faultless plan no candidate is ever filtered, every announcement
lands on the first (piggybacked) attempt, and the selection loop consumes
the RNG stream identically - so the selected set, the slot count and the
phase count are **bit-identical** to the lockstep oracle (the parity tests
pin this), and the oracle stays authoritative for everything faults perturb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..core.distr_cap import DistrCapSelector
from ..core.power_solver import is_power_controllable
from ..exceptions import ConfigurationError
from ..links import Link, LinkSet
from ..obs.runtime import OBS
from ..obs.spans import span
from ..sinr import LinearPower, SINRParameters
from .delivery import RetryPolicy
from .faults import FaultPlan
from .transport import FaultyTransport, PerfectTransport, Transport

__all__ = ["NetDistrCapBuilder", "NetDistrCapResult"]


@dataclass(frozen=True)
class NetDistrCapResult:
    """Outcome of ``Distr-Cap`` over the message runtime.

    The first block mirrors :class:`~repro.core.distr_cap.DistrCapResult`
    (field-for-field identical on a faultless run); the second reports what
    the transport did to the selection.

    Attributes:
        selected: the selected link set ``T'``.
        slots_used: channel slots consumed (two per phase, plus any
            dedicated announcement-retry slots).
        phases: number of length-class phases executed.
        power_controllable: whether ``T'`` passed the feasibility test.
        crashed_candidates: candidate links that sat a phase slot out
            because an endpoint was down.
        announce_retries: announcement retransmissions across all phases.
        announce_timeouts: winners whose announcements were never
            acknowledged within the retry budget.
        dropped_winners: winners excluded from ``T'`` because *no*
            announcement attempt was delivered.
        degraded: whether faults perturbed the selection at all.
        fault_summary: transport counters (drops, delays, ...).
        fault_digest: fingerprint of the fault history (``None`` on a
            perfect transport).
    """

    selected: LinkSet
    slots_used: int
    phases: int
    power_controllable: bool
    crashed_candidates: int = 0
    announce_retries: int = 0
    announce_timeouts: int = 0
    dropped_winners: int = 0
    degraded: bool = False
    fault_summary: dict[str, int] = field(default_factory=dict)
    fault_digest: str | None = None


class NetDistrCapBuilder:
    """Runs the distributed capacity selection over a fault-injected stack.

    Args:
        params: physical-model parameters.
        constants: protocol constants (thresholds, selection probability).
        plan: fault configuration; ``None`` means a perfect transport.
        policy: announcement retry budget and pacing.
        slot_offset: added to every slot before fault hashing, so a run
            chained after ``Init`` (or an election) draws fresh counters.
        coordinator_id: node collecting membership announcements (defaults
            to the smallest endpoint id; a crashed coordinator is replaced
            by the smallest live endpoint for the affected phase).
    """

    __slots__ = ("_oracle", "constants", "coordinator_id", "params", "plan", "policy", "slot_offset")

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        *,
        plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        slot_offset: int = 0,
        coordinator_id: int | None = None,
    ) -> None:
        if slot_offset < 0:
            raise ConfigurationError(f"slot_offset must be non-negative, got {slot_offset}")
        self.params = params
        self.constants = constants
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.slot_offset = slot_offset
        self.coordinator_id = coordinator_id
        # The oracle instance supplies the phase partition, the geometry
        # store and the per-slot affectance check, so the zero-fault path is
        # bit-identical to it by construction.
        self._oracle = DistrCapSelector(params, constants)

    def select(
        self,
        candidates: Sequence[Link] | LinkSet,
        rng: np.random.Generator,
        *,
        link_rounds: Mapping[tuple[int, int], int] | None = None,
    ) -> NetDistrCapResult:
        """Run the phased selection over the candidate set and the transport."""
        link_list = list(candidates)
        if not link_list:
            return NetDistrCapResult(LinkSet(), 0, 0, True)
        transport = self._make_transport()
        oracle = self._oracle
        linear = LinearPower.for_noise(self.params)
        state = oracle._geometry_state(link_list)
        phases = oracle._partition_into_phases(link_list, link_rounds)
        tau = self.constants.distr_cap_tau
        gamma = self.constants.duality_gamma
        probability = self.constants.selection_probability
        endpoint_ids = sorted(
            {link.sender.id for link in link_list} | {link.receiver.id for link in link_list}
        )
        default_coordinator = (
            self.coordinator_id if self.coordinator_id is not None else endpoint_ids[0]
        )

        selected: list[Link] = []
        used_nodes: set[int] = set()
        slots_used = 0
        crashed_candidates = 0
        announce_retries = 0
        announce_timeouts = 0
        dropped_winners = 0
        with span("netsim.distr_cap", candidates=len(link_list), phases=len(phases)):
            for _, phase_links in sorted(phases.items()):
                forward_slot = slots_used
                dual_slot = slots_used + 1
                slots_used += 2
                eligible = [
                    link
                    for link in phase_links
                    if link.sender.id not in used_nodes and link.receiver.id not in used_nodes
                ]
                # A candidate with a downed endpoint sits the phase out; it
                # consumes no randomness, matching the runtime's rule that
                # crashed nodes neither transmit nor draw.
                alive = [
                    link for link in eligible if not self._link_down(transport, link, forward_slot)
                ]
                crashed_candidates += len(eligible) - len(alive)
                if not alive:
                    continue
                survivors = oracle._phase_slot(
                    alive, selected, linear, rng, probability, tau / 4.0, state, forward=True
                )
                if not survivors:
                    continue
                # Mid-phase dropout: an endpoint that dies between the two
                # slots cannot transmit (or measure) the dual check.
                standing = [
                    link for link in survivors if not self._link_down(transport, link, dual_slot)
                ]
                crashed_candidates += len(survivors) - len(standing)
                if not standing:
                    continue
                winners = oracle._phase_slot(
                    standing, selected, linear, rng, 1.0, gamma * tau / 4.0, state, forward=False
                )
                if not winners:
                    continue
                coordinator = self._phase_coordinator(
                    transport, default_coordinator, endpoint_ids, dual_slot
                )
                admitted, extra_slots, retries, timeouts = self._announce(
                    transport, winners, coordinator, dual_slot
                )
                slots_used += extra_slots
                announce_retries += retries
                announce_timeouts += timeouts
                dropped_winners += len(winners) - len(admitted)
                for link in admitted:
                    if link.sender.id in used_nodes or link.receiver.id in used_nodes:
                        continue
                    selected.append(link)
                    used_nodes.add(link.sender.id)
                    used_nodes.add(link.receiver.id)

        if OBS.enabled:
            registry = OBS.registry
            if announce_retries:
                registry.inc("netsim.announce_retries", announce_retries)
            if announce_timeouts:
                registry.inc("netsim.announce_timeouts", announce_timeouts)
            if crashed_candidates:
                registry.inc("netsim.phase_dropouts", crashed_candidates)
        selected_set = LinkSet(selected)
        controllable = is_power_controllable(list(selected_set), self.params)
        trace = getattr(transport, "trace", None)
        return NetDistrCapResult(
            selected=selected_set,
            slots_used=slots_used,
            phases=len(phases),
            power_controllable=controllable,
            crashed_candidates=crashed_candidates,
            announce_retries=announce_retries,
            announce_timeouts=announce_timeouts,
            dropped_winners=dropped_winners,
            degraded=bool(
                crashed_candidates or dropped_winners or (trace is not None and trace.dropped)
            ),
            fault_summary=trace.summary() if trace is not None else {},
            fault_digest=trace.digest() if trace is not None else None,
        )

    # -- internals ----------------------------------------------------------

    def _make_transport(self) -> Transport:
        if self.plan is None or self.plan.faultless:
            return PerfectTransport()
        return FaultyTransport(self.plan, slot_offset=self.slot_offset)

    @staticmethod
    def _link_down(transport: Transport, link: Link, slot: int) -> bool:
        return transport.is_crashed(link.sender.id, slot) or transport.is_crashed(
            link.receiver.id, slot
        )

    @staticmethod
    def _phase_coordinator(
        transport: Transport, preferred: int, endpoint_ids: Sequence[int], slot: int
    ) -> int:
        """The phase's announcement collector, skipping crashed nodes."""
        if not transport.is_crashed(preferred, slot):
            return preferred
        for node_id in endpoint_ids:
            if not transport.is_crashed(node_id, slot):
                return node_id
        return preferred

    def _announce(
        self,
        transport: Transport,
        winners: Sequence[Link],
        coordinator: int,
        dual_slot: int,
    ) -> tuple[list[Link], int, int, int]:
        """Deliver the winners' membership announcements to the coordinator.

        Returns ``(admitted winners, extra slots, retries, timeouts)``.  The
        first attempt piggybacks on the phase's dual slot (zero extra cost);
        each later round occupies one dedicated slot shared by every still
        unacknowledged winner.  A winner is *admitted* once any announcement
        attempt is delivered; it keeps retrying until the coordinator's ack
        (drawn at the following slot) lands or the attempt budget runs out.
        """
        announced: set[tuple[int, int]] = set()
        acked: set[tuple[int, int]] = set()
        retries = 0
        extra_slots = 0
        # Bounded by the retry policy: round 0 is the piggybacked attempt,
        # later rounds are the dedicated retry slots.
        for attempt in range(self.policy.max_attempts):
            pending = [link for link in winners if link.endpoint_ids not in acked]
            if not pending:
                break
            if attempt > 0:
                extra_slots += 1
                retries += len(pending)
            slot = dual_slot + extra_slots
            src = np.array([link.sender.id for link in pending], dtype=np.int64)
            dst = np.full(len(pending), coordinator, dtype=np.int64)
            delivered, _ = transport.admit(slot, src, dst)
            landed = [link for link, ok in zip(pending, delivered) if ok]
            announced.update(link.endpoint_ids for link in landed)
            if landed:
                ack_src = np.full(len(landed), coordinator, dtype=np.int64)
                ack_dst = np.array([link.sender.id for link in landed], dtype=np.int64)
                ack_ok, _ = transport.admit(slot + 1, ack_src, ack_dst)
                acked.update(
                    link.endpoint_ids for link, ok in zip(landed, ack_ok) if ok
                )
        timeouts = sum(1 for link in winners if link.endpoint_ids not in acked)
        admitted = [link for link in winners if link.endpoint_ids in announced]
        return admitted, extra_slots, retries, timeouts
