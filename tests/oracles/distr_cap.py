"""``Distr-Cap`` on link objects: the lockstep phase loop before it selected
by position, and the forked loop over the transport (oracle of
``NetDistrCapBuilder``).

:class:`LinkPathDistrCapSelector` is :meth:`~repro.core.DistrCapSelector.run_phases`
as it ran on ``Link`` objects: eligibility by a set of used node ids, one
coin lookup per link by its endpoint ids, and every phase slot a fresh
:class:`~repro.sinr.LinkArrayCache` over its (oriented) links, whose
affectance block (:func:`link_affectance_block`) the positional slot must
reproduce bit for bit.

Before ``Distr-Cap`` had one phase loop with a per-slot seam, the netsim
builder ran its own copy of the lockstep loop: crashed endpoints sat slots
out, and each phase's winners announced to a coordinator under the retry
budget.  That loop is kept here, its coins flipped one link at a time, with
the lockstep selector's geometry store, phase partition and per-slot check
(early-exit scalar admission sum) beside it, so the parity tests can show
the seam-driven builder flips the same coins, makes the same transport
calls and reaches the same selection.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.coins import _hash_from, _hash_int, _hash_u64, _uniform_cut, seed_word
from repro.constants import DEFAULT_CONSTANTS, AlgorithmConstants
from repro.core import DistrCapResult, DistrCapSelector
from repro.core.distr_cap import _DISTR_CAP_STREAM, PhaseSeam, _geometry_state, _within_threshold
from repro.core.power_solver import is_power_controllable
from repro.exceptions import ConfigurationError
from repro.links import Link, LinkSet, length_class_index
from repro.netsim import FaultPlan, FaultyTransport, NetDistrCapResult, PerfectTransport, RetryPolicy, Transport
from repro.obs.runtime import OBS
from repro.obs.spans import span
from repro.sinr import LinearPower, LinkArrayCache, PowerAssignment, SINRParameters
from repro.sinr.positioned import _affectance_block
from repro.state import DecodeWorkspace, NetworkState
from repro.state.network import _take_block

__all__ = ["LinkPathDistrCapSelector", "ReferenceNetDistrCapBuilder", "link_affectance_block"]


def link_affectance_block(
    cache: LinkArrayCache,
    rows: Sequence[int] | np.ndarray,
    cols: Sequence[int] | np.ndarray,
    power: PowerAssignment,
    params: SINRParameters,
    *,
    workspace: DecodeWorkspace | None = None,
) -> np.ndarray:
    """Affectance of the cache's ``rows`` links' senders on its ``cols`` links.

    Elementwise ``cache.affectance_matrix(power, params)[np.ix_(rows,
    cols)]``, at O(|rows| * |cols|) cost: what ``Distr-Cap``'s phase slot
    read from its per-slot link cache before it selected by position.  A
    full matrix the cache holds already is sliced; otherwise the distances
    come from the cache's link-distance matrix when computed, else from its
    store's rectangle.  With a ``workspace`` the result is a view into it.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    full = cache._affectance.get((id(power), params))
    if full is not None:
        return full[np.ix_(rows, cols)]
    powers = cache.powers(power)
    if np.any(powers <= 0):
        raise ValueError("all link powers must be positive")
    if rows.size == 0 or cols.size == 0:
        return np.zeros((rows.size, cols.size), dtype=float)
    if cache._distances is not None:
        dist = _take_block(cache._distances, rows, cols, workspace, "aff.dist")
    else:
        state = cache.state
        dist = state.distance_rect(
            cache.sender_slots[rows], cache.receiver_slots[cols], workspace=workspace, key="aff.dist"
        )
    return _affectance_block(
        dist,
        (cache.sender_ids[rows], cache.sender_ids[cols], cache.receiver_ids[cols]),
        cache.lengths[cols],
        powers[rows],
        powers[cols],
        params,
        workspace,
    )


class LinkPathDistrCapSelector(DistrCapSelector):
    """:class:`DistrCapSelector` with the phase loop on link objects."""

    __slots__ = ()

    def run_phases(  # type: ignore[override]
        self,
        candidates: Sequence[Link] | LinkSet,
        rng: np.random.Generator,
        seam: PhaseSeam,
        *,
        link_rounds: Mapping[tuple[int, int], int] | None = None,
        state: NetworkState | None = None,
    ) -> DistrCapResult:
        link_list = list(candidates)
        if not link_list:
            return DistrCapResult(LinkSet(), 0, 0, True)
        state = _geometry_state(link_list, state).state
        ids = [link.endpoint_ids for link in link_list]
        hashes = _hash_u64(_DISTR_CAP_STREAM, seed_word(rng), *np.array(ids, dtype=np.int64).T)
        keys = dict(zip(ids, hashes.tolist()))
        linear = LinearPower.for_noise(self.params)
        phases = self._link_phases(link_list, link_rounds)
        tau = self.constants.distr_cap_tau
        gamma = self.constants.duality_gamma
        cut = _uniform_cut(self.constants.selection_probability)

        selected: list[Link] = []
        used_nodes: set[int] = set()
        slots_used = 0
        for _, phase_links in sorted(phases.items()):
            forward_slot = slots_used
            slots_used += 2
            eligible = [link for link in phase_links if used_nodes.isdisjoint(link.endpoint_ids)]
            standing = seam.stand(eligible, forward_slot)
            if not standing:
                continue
            own = np.array([keys[link.endpoint_ids] for link in standing], dtype=np.uint64)
            heads = (_hash_from(own, forward_slot) < cut).tolist()
            attempting = [link for link, head in zip(standing, heads) if head]
            survivors = self._link_slot(attempting, selected, linear, tau / 4.0, state, forward=True)
            if not survivors:
                continue
            standing = seam.stand(survivors, forward_slot + 1)
            if not standing:
                continue
            winners = self._link_slot(
                standing, selected, linear, gamma * tau / 4.0, state, forward=False
            )
            if not winners:
                continue
            admitted, extra_slots = seam.admit(winners, forward_slot + 1)
            slots_used += extra_slots
            for link in admitted:
                if used_nodes.isdisjoint(link.endpoint_ids):
                    selected.append(link)
                    used_nodes.update(link.endpoint_ids)

        selected_set = LinkSet(selected)
        controllable = is_power_controllable(list(selected_set), self.params)
        return DistrCapResult(selected_set, slots_used, len(phases), controllable)

    @staticmethod
    def _link_phases(
        links: Sequence[Link], link_rounds: Mapping[tuple[int, int], int] | None
    ) -> dict[int, list[Link]]:
        rounds = {} if link_rounds is None else link_rounds
        phases: dict[int, list[Link]] = {}
        min_length: float | None = None
        for link in links:
            if link.endpoint_ids in rounds:
                key = int(rounds[link.endpoint_ids])
            else:
                if min_length is None:
                    min_length = min(min(other.length for other in links), 1.0)
                key = length_class_index(link.length, min_length=min_length)
            phases.setdefault(key, []).append(link)
        return phases

    def _link_slot(
        self,
        attempting: Sequence[Link],
        selected: Sequence[Link],
        linear: LinearPower,
        threshold: float,
        state: NetworkState,
        *,
        forward: bool,
    ) -> list[Link]:
        if not attempting:
            return []
        universe = [link if forward else link.dual for link in [*selected, *attempting]]
        first_link_of: dict[int, int] = {}
        for index, o in enumerate(universe):
            first_link_of.setdefault(o.sender.id, index)
        cache = LinkArrayCache(universe, state=state)
        offset = len(universe) - len(attempting)
        block = link_affectance_block(
            cache,
            list(first_link_of.values()),
            np.arange(offset, len(universe)),
            linear,
            self.params,
            workspace=self._workspace,
        )
        passed = _within_threshold(block, threshold).tolist()
        return [
            link
            for position, link in enumerate(attempting)
            if passed[position] and universe[offset + position].receiver.id not in first_link_of
        ]


class _ReferenceSelector:
    """The lockstep selector's internals the forked loop called."""

    __slots__ = ("_workspace", "constants", "params")

    def __init__(self, params: SINRParameters, constants: AlgorithmConstants) -> None:
        self.params = params
        self.constants = constants
        self._workspace = DecodeWorkspace()

    def _geometry_state(self, link_list: Sequence[Link]) -> NetworkState:
        """The run's shared node-geometry store (also used by the netsim
        overlay, so both paths gather bitwise-identical distance blocks).

        A dense store materializes its distance matrix once, so every slot
        gathers its sender->receiver block from it; a tiled one serves the
        same hypot values computed from coordinates per slot.
        """
        state = NetworkState.for_links(link_list)
        if state.materializes_matrices:
            state.distance_matrix()
        return state

    def _partition_into_phases(
        self,
        links: Sequence[Link],
        link_rounds: Mapping[tuple[int, int], int] | None,
    ) -> dict[int, list[Link]]:
        phases: dict[int, list[Link]] = {}
        shortest = min(link.length for link in links)
        for link in links:
            if link_rounds is not None and link.endpoint_ids in link_rounds:
                key = int(link_rounds[link.endpoint_ids])
            else:
                key = length_class_index(link.length, min_length=min(shortest, 1.0))
            phases.setdefault(key, []).append(link)
        return phases

    def _phase_slot(
        self,
        candidates: Sequence[Link],
        selected: Sequence[Link],
        linear: LinearPower,
        seed: int,
        slot: int,
        probability: float,
        threshold: float,
        state: NetworkState,
        *,
        forward: bool,
    ) -> list[Link]:
        """One slot of a phase; returns the candidates whose check passed.

        In the forward slot the candidates and the selected set transmit in
        their link direction; in the dual slot both transmit in the reverse
        direction.  A candidate attempts when its own coin, hashed on its
        own, comes up heads (always, at probability 1).  It passes when the
        affectance measured at the receiving endpoint (from every other
        transmitter in the slot) is at most ``threshold``.
        """
        cut = int(_uniform_cut(probability))
        attempting = [
            link
            for link in candidates
            if probability >= 1.0
            or _hash_int(_DISTR_CAP_STREAM, seed, link.sender.id, link.receiver.id, slot) < cut
        ]
        if not attempting:
            return []

        def oriented(link: Link) -> Link:
            return link if forward else link.dual

        # All transmitters in this slot: the selected set plus the attempting
        # candidates, each transmitting on its (oriented) link with linear
        # power.  Linear power of a link equals that of its dual (same length).
        # Only the transmitters x attempting block of pairwise affectances is
        # ever read, so compute exactly that from the slot's LinkArrayCache
        # (same-sender pairs are zero there, matching the scalar rule that a
        # sender does not affect itself).
        universe = [oriented(link) for link in list(selected) + list(attempting)]
        transmitter_indices: list[int] = []
        seen_senders: set[int] = set()
        for index, o in enumerate(universe):
            if o.sender.id in seen_senders:
                continue
            seen_senders.add(o.sender.id)
            transmitter_indices.append(index)

        cache = LinkArrayCache(universe, state=state)
        offset = len(universe) - len(attempting)
        block = link_affectance_block(
            cache,
            transmitter_indices,
            np.arange(offset, len(universe)),
            linear,
            self.params,
            workspace=self._workspace,
        )

        survivors: list[Link] = []
        for position, link in enumerate(attempting):
            target = universe[offset + position]
            if target.receiver.id in seen_senders:
                # The receiving endpoint is itself transmitting in this slot;
                # it cannot measure anything (half-duplex).
                continue
            # Accumulate in transmitter order with the seed's early exit so
            # the floating-point comparison against the threshold is
            # reproduced exactly.
            total = 0.0
            for value in block[:, position]:
                total += value
                if total > threshold:
                    break
            if total <= threshold:
                survivors.append(link)
        return survivors


class ReferenceNetDistrCapBuilder:
    """``NetDistrCapBuilder`` as a fork of the lockstep phase loop."""

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
        self._oracle = _ReferenceSelector(params, constants)

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
        seed = seed_word(rng)
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
                # A candidate with a downed endpoint sits the phase out,
                # matching the runtime's rule that crashed nodes neither
                # transmit nor flip coins.
                alive = [
                    link for link in eligible if not self._link_down(transport, link, forward_slot)
                ]
                crashed_candidates += len(eligible) - len(alive)
                if not alive:
                    continue
                survivors = oracle._phase_slot(
                    alive,
                    selected,
                    linear,
                    seed,
                    forward_slot,
                    probability,
                    tau / 4.0,
                    state,
                    forward=True,
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
                    standing,
                    selected,
                    linear,
                    seed,
                    dual_slot,
                    1.0,
                    gamma * tau / 4.0,
                    state,
                    forward=False,
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
            fault_trace=trace,
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
