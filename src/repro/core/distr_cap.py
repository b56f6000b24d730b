"""``Distr-Cap``: distributed feasible-subset selection with arbitrary power
(Section 8.2).

The algorithm distributes Kesselheim's centralized capacity selection
(Eqn. 3).  Links are processed in phases by length class - exactly the classes
in which ``Init`` formed them - so that, as in the centralized algorithm,
every link is examined only against links no longer than itself.  Each phase
is a slot-pair:

* **slot 1**: the already-selected set ``T'`` transmits with *linear* power;
  candidate links of the current class transmit with probability ``p``, also
  with linear power.  A candidate's coin is the counter hash of its
  ``(sender id, receiver id, slot)`` under the run's seed
  (:mod:`repro.coins`).  A candidate's receiver records a success when the
  affectance it measures (from everything else transmitting) is at most
  ``tau / 4`` - a quantity the receiver can derive from the interference power
  it observes, its link length and the globally known power scheme.
* **slot 2**: the duals of ``T'`` and of the slot-1 survivors transmit, again
  with linear power; success requires measured affectance at most
  ``gamma * tau / 4``.

Links surviving both slots join ``T'``.  Lemmas 17-18 show the final ``T'``
satisfies Eqn. 3 and is therefore power-controllable; Theorem 20 shows it
captures a constant fraction of the optimum.  The practical implementation
additionally excludes candidates whose endpoints already appear in ``T'``
(each node knows its own involvement), which enforces the "one link per node
per slot" structure the final schedule needs.

:meth:`DistrCapSelector.run_phases` is the one phase loop; a
:class:`PhaseSeam` decides which candidates sit a slot out and which winners
join ``T'`` (the netsim builder passes a fault-aware one).  The loop decodes
from the caller's geometry store when one is given, else from its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..coins import _hash_from, _hash_u64, _uniform_cut, seed_word
from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConfigurationError
from ..geometry import nodes_to_array
from ..links import Link, LinkSet, length_class_index
from ..sinr import LinearPower, LinkArrayCache, SINRParameters
from ..state import DecodeWorkspace, NetworkState
from .power_solver import is_power_controllable

__all__ = ["DistrCapResult", "DistrCapSelector", "PhaseSeam"]

#: Stream tag of the candidates' forward-slot coins.
_DISTR_CAP_STREAM = 0x44434150


@dataclass(frozen=True)
class DistrCapResult:
    """Outcome of a ``Distr-Cap`` run.

    Attributes:
        selected: the selected link set ``T'``.
        slots_used: channel slots consumed (two per phase, plus any extra
            slots the seam's admission spent).
        phases: number of length-class phases executed.
        power_controllable: whether the selected set passed the exact
            power-control feasibility test (it should, by Lemmas 17-18).
    """

    selected: LinkSet
    slots_used: int
    phases: int
    power_controllable: bool


class PhaseSeam:
    """The per-slot hooks of the phase loop.  This base is the lockstep seam:
    every candidate takes part in every slot, and every winner joins ``T'``
    at no extra slot cost."""

    __slots__ = ()

    def stand(self, links: list[Link], slot: int) -> list[Link]:
        """The links that take part in ``slot``; the others sit it out."""
        return links

    def admit(self, winners: list[Link], dual_slot: int) -> tuple[list[Link], int]:
        """The winners of the phase ending at ``dual_slot`` that join ``T'``,
        and the extra slots their admission took."""
        return winners, 0


def _within_threshold(block: np.ndarray, threshold: float) -> np.ndarray:
    """Columns of ``block`` whose sum, added in row order, is at most ``threshold``.

    ``np.add.accumulate`` adds sequentially down each column, so the last
    row holds exactly the running sums of a scalar loop over the rows.  The
    entries are affectances (``>= 0``), so a running sum above the
    threshold stays above it, and a NaN compares False either way: the
    result equals a loop that stops at the first excess.
    """
    return np.add.accumulate(block, axis=0)[-1] <= threshold


def _geometry_state(links: Sequence[Link], state: NetworkState | None) -> NetworkState:
    """The store every slot of the run decodes from, after checking the input.

    A given store must hold every endpoint where the links have it; without
    one, a store over the links' endpoints is built.  A dense store
    materializes its distance matrix once, so every slot gathers its
    sender->receiver block from it; a tiled one serves the same hypot values
    computed from coordinates per slot.
    """
    ends = [node for link in links for node in (link.sender, link.receiver)]
    ids = np.array([node.id for node in ends], dtype=np.int64)
    xy = nodes_to_array(ends)
    # Each endpoint's first appearance of its id (a stable sort groups the
    # ids, first appearance leading; np.unique would import numpy.ma).  The
    # first failing endpoint is the one a check in endpoint order meets first.
    order = np.argsort(ids, kind="stable")
    grouped = ids[order]
    leads = np.ones(ids.size, dtype=bool)
    leads[1:] = grouped[1:] != grouped[:-1]
    first = order[leads]
    first_of = np.empty_like(order)
    first_of[order] = first[np.cumsum(leads) - 1]
    non_finite = ~np.isfinite(xy).all(axis=1)
    moved = (xy != xy[first_of]).any(axis=1)
    if non_finite.any() or moved.any():
        bad = int(non_finite.argmax()) if non_finite.any() else len(ends)
        if moved[:bad].any():
            raise ConfigurationError(f"endpoint {ids[moved.argmax()]} appears at two positions")
        raise ConfigurationError(
            f"endpoint {ends[bad].id} has a non-finite coordinate {ends[bad].position}"
        )
    keep = np.sort(first)
    if state is None:
        return _materialized(NetworkState.for_nodes([ends[i] for i in keep.tolist()]))
    ids, xy = ids[keep], xy[keep]
    live = state.live_slots()
    live_ids = state.ids[live]
    order = np.argsort(live_ids)
    at = np.searchsorted(live_ids, ids, sorter=order)
    present = at < live.size
    at[present] = order[at[present]]
    present[present] = live_ids[at[present]] == ids[present]
    if not present.all():
        raise ConfigurationError(f"the store lacks endpoint {ids[present.argmin()]}")
    elsewhere = np.any(state.xy[live[at]] != xy, axis=1)
    if elsewhere.any():
        raise ConfigurationError(f"the store holds endpoint {ids[elsewhere.argmax()]} elsewhere")
    return _materialized(state)


def _materialized(state: NetworkState) -> NetworkState:
    """``state``, with a dense store's distance matrix computed once."""
    if state.materializes_matrices:
        state.distance_matrix()
    return state


class DistrCapSelector:
    """Distributed capacity selection with arbitrary (post-computed) power.

    One selector may serve many runs: its decode workspace is reused.

    Args:
        params: physical-model parameters.
        constants: protocol constants; ``distr_cap_tau`` is the admission
            threshold, ``duality_gamma`` the dual-slot tightening,
            ``selection_probability`` the per-candidate transmission
            probability in slot 1.
    """

    __slots__ = ('_workspace', 'constants', 'params')

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
    ):
        self.params = params
        self.constants = constants
        self._workspace = DecodeWorkspace()

    def select(
        self,
        candidates: Sequence[Link] | LinkSet,
        rng: np.random.Generator,
        *,
        link_rounds: Mapping[tuple[int, int], int] | None = None,
        state: NetworkState | None = None,
    ) -> DistrCapResult:
        """Run the phased selection over the candidate set.

        Args:
            candidates: candidate links (typically ``T(M)``).
            rng: source of the run's seed word.
            link_rounds: optional mapping from link endpoint ids to the
                ``Init`` round in which the link was formed; links formed in
                the same round share a length class and are processed in the
                same phase.  When absent, phases are derived from link lengths.
            state: a geometry store holding every candidate endpoint at the
                link's position, to decode from instead of building one.

        Raises:
            ConfigurationError: if an endpoint has a non-finite coordinate,
                one id sits at two positions, or ``state`` lacks an endpoint
                or holds it elsewhere.
        """
        return self.run_phases(candidates, rng, PhaseSeam(), link_rounds=link_rounds, state=state)

    def run_phases(
        self,
        candidates: Sequence[Link] | LinkSet,
        rng: np.random.Generator,
        seam: PhaseSeam,
        *,
        link_rounds: Mapping[tuple[int, int], int] | None = None,
        state: NetworkState | None = None,
    ) -> DistrCapResult:
        """The phase loop, with ``seam`` deciding sit-outs and admission.

        Arguments as for :meth:`select`.
        """
        link_list = list(candidates)
        if not link_list:
            return DistrCapResult(LinkSet(), 0, 0, True)

        # One node-geometry store for the whole run, shared by every phase
        # slot's LinkArrayCache (over its oriented sub-universe).
        state = _geometry_state(link_list, state)
        # A candidate's coin hashes its ids once; each phase slot folds in one word.
        ids = [link.endpoint_ids for link in link_list]
        hashes = _hash_u64(_DISTR_CAP_STREAM, seed_word(rng), *np.array(ids, dtype=np.int64).T)
        keys = dict(zip(ids, hashes.tolist()))
        linear = LinearPower.for_noise(self.params)
        phases = self._partition_into_phases(link_list, link_rounds)
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
            survivors = self._phase_slot(
                attempting, selected, linear, tau / 4.0, state, forward=True
            )
            if not survivors:
                continue
            standing = seam.stand(survivors, forward_slot + 1)
            if not standing:
                continue
            # Every survivor checks its dual: no coin.
            winners = self._phase_slot(
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

    # -- internals ----------------------------------------------------------

    def _partition_into_phases(
        self,
        links: Sequence[Link],
        link_rounds: Mapping[tuple[int, int], int] | None,
    ) -> dict[int, list[Link]]:
        rounds = {} if link_rounds is None else link_rounds
        phases: dict[int, list[Link]] = {}
        # Links without a formation round are phased by length class; the
        # shortest link is measured only when some link needs it.
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

    def _phase_slot(
        self,
        attempting: Sequence[Link],
        selected: Sequence[Link],
        linear: LinearPower,
        threshold: float,
        state: NetworkState,
        *,
        forward: bool,
    ) -> list[Link]:
        """One slot of a phase; returns the attempting links whose check passed.

        In the forward slot the attempting links and the selected set
        transmit in their link direction; in the dual slot both transmit in
        the reverse direction.  A link passes when the affectance measured
        at the receiving endpoint (from every other transmitter in the slot)
        is at most ``threshold``.
        """
        if not attempting:
            return []

        # All transmitters in this slot: the selected set plus the attempting
        # candidates, each transmitting on its (oriented) link with linear
        # power.  Linear power of a link equals that of its dual (same length).
        # Only the transmitters x attempting block of pairwise affectances is
        # ever read, so compute exactly that from the slot's LinkArrayCache
        # (same-sender pairs are zero there, matching the scalar rule that a
        # sender does not affect itself).
        universe = [link if forward else link.dual for link in [*selected, *attempting]]
        # Each sender transmits once, on its first link in the universe.
        first_link_of: dict[int, int] = {}
        for index, o in enumerate(universe):
            first_link_of.setdefault(o.sender.id, index)

        cache = LinkArrayCache(universe, state=state)
        offset = len(universe) - len(attempting)
        block = cache.affectance_block(
            list(first_link_of.values()),
            np.arange(offset, len(universe)),
            linear,
            self.params,
            workspace=self._workspace,
        )

        passed = _within_threshold(block, threshold).tolist()
        # A receiving endpoint that is itself transmitting in this slot
        # cannot measure anything (half-duplex).
        return [
            link
            for position, link in enumerate(attempting)
            if passed[position] and universe[offset + position].receiver.id not in first_link_of
        ]
