"""``Distr-Cap`` over the faulty transport: phased selection that survives.

:class:`NetDistrCapBuilder` runs the one phase loop of
:meth:`~repro.core.distr_cap.DistrCapSelector.run_phases` - same phase
partition, same slot-pair structure, same affectance arithmetic and the same
RNG consumption - with a fault seam that threads every phase through a
:class:`~repro.netsim.transport.Transport`:

* a candidate whose endpoint is **crashed** at a phase slot sits that slot
  out (it cannot transmit or measure), so crashes thin the competition
  mid-phase instead of wedging it;
* each phase's winners **announce** their membership in ``T'`` to a
  coordinator node.  The first announcement piggybacks on the phase's dual
  slot; a dropped announcement is retried in dedicated extra slots under the
  :class:`~repro.netsim.delivery.RetryPolicy` budget, and a winner whose
  every announcement is lost falls out of ``T'`` (its endpoints stay free
  for later phases) - reported, never silent.

Under a faultless plan no candidate is ever filtered and every announcement
lands on the first (piggybacked) attempt, so the seam acts as the lockstep
identity: the selected set, the slot count and the phase count are
**bit-identical** to :meth:`~repro.core.distr_cap.DistrCapSelector.select`
(the parity tests pin this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..core.distr_cap import DistrCapResult, DistrCapSelector, PhaseSeam
from ..exceptions import ConfigurationError
from ..links import Link, LinkSet
from ..obs.runtime import OBS
from ..obs.spans import begin_span, end_span
from ..sinr import SINRParameters
from .delivery import RetryPolicy
from .faults import FaultPlan, FaultRecord, FaultTrace
from .transport import FaultyTransport, PerfectTransport, Transport

__all__ = ["NetDistrCapBuilder", "NetDistrCapResult"]


@dataclass(frozen=True)
class NetDistrCapResult(DistrCapResult, FaultRecord):
    """Outcome of ``Distr-Cap`` over the message runtime.

    The inherited fields are field-for-field identical to
    :meth:`DistrCapSelector.select`'s on a faultless run (``slots_used``
    also counts dedicated announcement-retry slots); the rest report what
    the transport did to the selection.

    Attributes:
        crashed_candidates: candidate links that sat a phase slot out
            because an endpoint was down.
        announce_retries: announcement retransmissions across all phases.
        announce_timeouts: winners whose announcements were never
            acknowledged within the retry budget.
        dropped_winners: winners excluded from ``T'`` because *no*
            announcement attempt was delivered.
        degraded: whether faults perturbed the selection at all.
        fault_summary: transport counters (drops, delays, ...).
        fault_trace: the faults the transport injected (``None`` on a
            perfect transport); ``fault_digest`` is its fingerprint.
    """

    crashed_candidates: int = 0
    announce_retries: int = 0
    announce_timeouts: int = 0
    dropped_winners: int = 0
    degraded: bool = False
    fault_summary: dict[str, int] = field(default_factory=dict)
    fault_trace: FaultTrace | None = field(default=None, repr=False)


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

    __slots__ = ("_selector", "constants", "coordinator_id", "params", "plan", "policy", "slot_offset")

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
        self._selector = DistrCapSelector(params, constants)

    def select(
        self,
        candidates: Sequence[Link] | LinkSet,
        rng: np.random.Generator,
        *,
        link_rounds: Mapping[tuple[int, int], int] | None = None,
    ) -> NetDistrCapResult:
        """Run the phased selection over the candidate set and the transport.

        Raises:
            ConfigurationError: if an endpoint has a non-finite coordinate,
                or one id sits at two positions.
        """
        link_list = list(candidates)
        if not link_list:
            return NetDistrCapResult(LinkSet(), 0, 0, True)
        endpoint_ids = sorted({node_id for link in link_list for node_id in link.endpoint_ids})
        seam = _FaultSeam(
            self._make_transport(),
            self.policy,
            endpoint_ids,
            self.coordinator_id if self.coordinator_id is not None else endpoint_ids[0],
        )
        handle = begin_span("netsim.distr_cap", candidates=len(link_list))
        outcome = self._selector.run_phases(link_list, rng, seam, link_rounds=link_rounds)
        if handle is not None:
            handle.labels["phases"] = outcome.phases
        end_span(handle)

        if OBS.enabled:
            for name, count in (
                ("netsim.announce_retries", seam.announce_retries),
                ("netsim.announce_timeouts", seam.announce_timeouts),
                ("netsim.phase_dropouts", seam.crashed_candidates),
            ):
                if count:
                    OBS.registry.inc(name, count)
        trace = getattr(seam.transport, "trace", None)
        return NetDistrCapResult(
            **vars(outcome),
            crashed_candidates=seam.crashed_candidates,
            announce_retries=seam.announce_retries,
            announce_timeouts=seam.announce_timeouts,
            dropped_winners=seam.dropped_winners,
            degraded=bool(
                seam.crashed_candidates or seam.dropped_winners or (trace is not None and trace.dropped)
            ),
            fault_summary=trace.summary() if trace is not None else {},
            fault_trace=trace,
        )

    # -- internals ----------------------------------------------------------

    def _make_transport(self) -> Transport:
        if self.plan is None or self.plan.faultless:
            return PerfectTransport()
        return FaultyTransport(self.plan, slot_offset=self.slot_offset)


@dataclass(eq=False)
class _FaultSeam(PhaseSeam):
    """The phase loop's hooks over a transport, with one run's fault counters.

    A candidate with a crashed endpoint sits the slot out; it consumes no
    randomness, matching the runtime's rule that crashed nodes neither
    transmit nor draw.  Winners join ``T'`` once an announcement to the
    phase's coordinator lands.
    """

    transport: Transport
    policy: RetryPolicy
    endpoint_ids: Sequence[int]
    preferred_coordinator: int
    crashed_candidates: int = 0
    announce_retries: int = 0
    announce_timeouts: int = 0
    dropped_winners: int = 0

    def stand(self, links: list[Link], slot: int) -> list[Link]:
        down = self.transport.crashed_ids(slot)
        standing = [link for link in links if down.isdisjoint(link.endpoint_ids)]
        self.crashed_candidates += len(links) - len(standing)
        return standing

    def admit(self, winners: list[Link], dual_slot: int) -> tuple[list[Link], int]:
        """Deliver the winners' membership announcements to the coordinator.

        The coordinator is the preferred node unless it is down, else the
        smallest live endpoint.  The first attempt piggybacks on the phase's
        dual slot (zero extra cost); each later round occupies one dedicated
        slot shared by every still unacknowledged winner.  A winner is
        *admitted* once any announcement attempt is delivered; it keeps
        retrying until the coordinator's ack (drawn at the following slot)
        lands or the attempt budget runs out.
        """
        transport = self.transport
        down = transport.crashed_ids(dual_slot)
        coordinator = next(
            (i for i in chain((self.preferred_coordinator,), self.endpoint_ids) if i not in down),
            self.preferred_coordinator,
        )
        announced: set[tuple[int, int]] = set()
        acked: set[tuple[int, int]] = set()
        extra_slots = 0
        # Bounded by the retry policy: round 0 is the piggybacked attempt,
        # later rounds are the dedicated retry slots.
        for attempt in range(self.policy.max_attempts):
            pending = [link for link in winners if link.endpoint_ids not in acked]
            if not pending:
                break
            if attempt > 0:
                extra_slots += 1
                self.announce_retries += len(pending)
            slot = dual_slot + extra_slots
            src = np.array([link.sender.id for link in pending], dtype=np.int64)
            dst = np.full(len(pending), coordinator, dtype=np.int64)
            delivered, _ = transport.admit(slot, src, dst)
            landed = [link for link, ok in zip(pending, delivered) if ok]
            announced.update(link.endpoint_ids for link in landed)
            if landed:
                ack_dst = np.array([link.sender.id for link in landed], dtype=np.int64)
                ack_ok, _ = transport.admit(slot + 1, np.full_like(ack_dst, coordinator), ack_dst)
                acked.update(link.endpoint_ids for link, ok in zip(landed, ack_ok) if ok)
        self.announce_timeouts += sum(1 for link in winners if link.endpoint_ids not in acked)
        admitted = [link for link in winners if link.endpoint_ids in announced]
        self.dropped_winners += len(winners) - len(admitted)
        return admitted, extra_slots
