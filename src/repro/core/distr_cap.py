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
join ``T'`` (the netsim builder passes a fault-aware one).  The loop runs on
positions: candidates are (sender, receiver) slots of one geometry store
(:class:`~repro.sinr.PositionedLinks`), so a phase slot is a handful of array
steps over index arrays.  ``TreeViaCapacity`` passes its ``T(M)`` that way;
``Link`` candidates are mapped to slots of the caller's store, or of one
built over their endpoints, once at entry.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from ..coins import _hash_from, _hash_u64, _uniform_cut, seed_word
from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConfigurationError
from ..geometry import nodes_to_array
from ..links import Link, LinkSet, length_class_index
from ..sinr import LinearPower, PositionedLinks, SINRParameters
from ..state import DecodeWorkspace, NetworkState, first_positions
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
        power_controllable: whether the selected set passes the exact
            power-control feasibility test (it should, by Lemmas 17-18);
            given, or run under ``params`` on first read.
        params: the physical-model parameters of the run.
    """

    selected: LinkSet
    slots_used: int
    phases: int
    power_controllable: InitVar[bool | None] = None
    params: SINRParameters | None = field(default=None, repr=False, compare=False)

    def __post_init__(self, power_controllable: object) -> None:
        # Without a given verdict the field's default is the cached property
        # below, whose first read runs the test.
        if isinstance(power_controllable, bool):
            self.__dict__["power_controllable"] = power_controllable

    @cached_property
    def power_controllable(self) -> bool:  # type: ignore[no-redef]
        return is_power_controllable(list(self.selected), self.params)


class PhaseSeam:
    """The per-slot hooks of the phase loop.  This base is the lockstep seam:
    every candidate takes part in every slot, and every winner joins ``T'``
    at no extra slot cost; the loop then skips the hooks altogether."""

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


def _geometry_state(links: Sequence[Link], state: NetworkState | None) -> PositionedLinks:
    """The links as slots of the store every slot of the run decodes from,
    after checking the input.

    A given store must hold every endpoint where the links have it; without
    one, a store over the links' endpoints is built.  Every slot asks the
    store for its sender->receiver distance rectangle.
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
    # Every endpoint's rank among the distinct endpoints, in first-appearance order.
    rank = np.searchsorted(keep, first_of)
    if state is None:
        state = NetworkState.for_nodes([ends[i] for i in keep.tolist()])
        slots = rank
    else:
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
        slots = live[at][rank]
    return PositionedLinks(state, slots[0::2], slots[1::2])


def _length_classes(lengths: np.ndarray) -> np.ndarray:
    """Each link's length class, relative to the shortest link (at most 1)."""
    min_length = min(float(lengths.min()), 1.0)
    classes = [length_class_index(length, min_length=min_length) for length in lengths.tolist()]
    return np.array(classes, dtype=np.int64)


def _phases(candidates: PositionedLinks) -> list[np.ndarray]:
    """The candidates of each phase, phases by ascending key, each in
    candidate order; keys are the given rounds, else the length classes."""
    keys = candidates.rounds
    if keys is None:
        keys = _length_classes(candidates.lengths)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    return np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)


def _kept(kept: list[Link], links: list[Link], indices: np.ndarray) -> np.ndarray:
    """The entries of ``indices`` whose links a seam kept (an in-order sub-list)."""
    positions = iter(indices.tolist())
    out = [next(i for i in positions if links[i] is link) for link in kept]
    return np.array(out, dtype=np.intp)


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
        candidates: Sequence[Link] | LinkSet | PositionedLinks,
        rng: np.random.Generator,
        *,
        link_rounds: Mapping[tuple[int, int], int] | None = None,
        state: NetworkState | None = None,
    ) -> DistrCapResult:
        """Run the phased selection over the candidate set.

        Args:
            candidates: candidate links (typically ``T(M)``), as ``Link``
                objects or as slots of a store, with their rounds.
            rng: source of the run's seed word.
            link_rounds: optional mapping from link endpoint ids to the
                ``Init`` round in which the link was formed; links formed in
                the same round share a length class and are processed in the
                same phase.  When absent, phases are derived from link lengths.
            state: a geometry store holding every ``Link`` candidate's
                endpoints at the link's position, to decode from instead of
                building one.

        Raises:
            ConfigurationError: if an endpoint has a non-finite coordinate,
                one id sits at two positions, or ``state`` lacks an endpoint
                or holds it elsewhere.
        """
        return self.run_phases(candidates, rng, PhaseSeam(), link_rounds=link_rounds, state=state)

    def run_phases(
        self,
        candidates: Sequence[Link] | LinkSet | PositionedLinks,
        rng: np.random.Generator,
        seam: PhaseSeam,
        *,
        link_rounds: Mapping[tuple[int, int], int] | None = None,
        state: NetworkState | None = None,
    ) -> DistrCapResult:
        """The phase loop, with ``seam`` deciding sit-outs and admission.

        Arguments as for :meth:`select`; positional candidates carry their
        store and rounds, so ``link_rounds`` and ``state`` apply to ``Link``
        candidates only.
        """
        link_list: list[Link] | None = None
        if isinstance(candidates, PositionedLinks):
            positioned = candidates
        else:
            link_list = list(candidates)
            if not link_list:
                return DistrCapResult(LinkSet(), 0, 0, True)
            positioned = _geometry_state(link_list, state)
            if link_rounds is not None:
                # A link without a known round is phased by its length class.
                classes = _length_classes(positioned.lengths).tolist()
                positioned.rounds = np.array(
                    [int(link_rounds.get(link.endpoint_ids, c)) for link, c in zip(link_list, classes)],
                    dtype=np.int64,
                )
        if not len(positioned):
            return DistrCapResult(LinkSet(), 0, 0, True)
        # The lockstep seam keeps every link: its hooks are skipped, and a
        # positional run builds no Link objects but those of T'.
        lockstep = type(seam) is PhaseSeam
        if not lockstep and link_list is None:
            link_list = positioned.links()

        senders, receivers = positioned.senders, positioned.receivers
        ids = positioned.state.ids
        # A candidate's coin hashes its ids once; each phase slot folds in one word.
        keys = _hash_u64(_DISTR_CAP_STREAM, seed_word(rng), ids[senders], ids[receivers])
        linear = LinearPower.for_noise(self.params)
        powers = np.array([linear.of_length(length) for length in positioned.lengths.tolist()])
        phases = _phases(positioned)
        tau = self.constants.distr_cap_tau
        gamma = self.constants.duality_gamma
        cut = _uniform_cut(self.constants.selection_probability)

        def stand(indices: np.ndarray, slot: int) -> np.ndarray:
            if lockstep:
                return indices
            links = [link_list[i] for i in indices.tolist()]
            return _kept(seam.stand(links, slot), link_list, indices)

        selected = np.empty(0, dtype=np.intp)
        used = np.zeros(positioned.state.capacity, dtype=bool)
        slots_used = 0
        for phase in phases:
            forward_slot = slots_used
            slots_used += 2
            eligible = phase[~(used[senders[phase]] | used[receivers[phase]])]
            standing = stand(eligible, forward_slot)
            if not standing.size:
                continue
            heads = _hash_from(keys[standing], forward_slot) < cut
            survivors = self._phase_slot(
                positioned, standing[heads], selected, powers, tau / 4.0, forward=True
            )
            if not survivors.size:
                continue
            standing = stand(survivors, forward_slot + 1)
            if not standing.size:
                continue
            # Every survivor checks its dual: no coin.
            winners = self._phase_slot(
                positioned, standing, selected, powers, gamma * tau / 4.0, forward=False
            )
            if not winners.size:
                continue
            if not lockstep:
                links = [link_list[i] for i in winners.tolist()]
                admitted, extra_slots = seam.admit(links, forward_slot + 1)
                winners = _kept(admitted, link_list, winners)
                slots_used += extra_slots
            joined = []
            for k in winners.tolist():
                sender, receiver = senders[k], receivers[k]
                if not (used[sender] or used[receiver]):
                    joined.append(k)
                    used[sender] = used[receiver] = True
            selected = np.concatenate((selected, np.array(joined, dtype=np.intp)))

        chosen = (
            positioned.links(selected)
            if link_list is None
            else [link_list[i] for i in selected.tolist()]
        )
        return DistrCapResult(LinkSet(chosen), slots_used, len(phases), params=self.params)

    # -- internals ----------------------------------------------------------

    def _phase_slot(
        self,
        candidates: PositionedLinks,
        attempting: np.ndarray,
        selected: np.ndarray,
        powers: np.ndarray,
        threshold: float,
        *,
        forward: bool,
    ) -> np.ndarray:
        """One slot of a phase; returns the attempting candidates whose check passed.

        In the forward slot the attempting links and the selected set
        transmit in their link direction; in the dual slot both transmit in
        the reverse direction, each with linear power (a link's dual has its
        length).  A link passes when the affectance measured at the
        receiving endpoint (from every other transmitter in the slot) is at
        most ``threshold``.
        """
        if not attempting.size:
            return attempting
        universe = np.concatenate((selected, attempting))
        tx, rx = (
            (candidates.senders, candidates.receivers)
            if forward
            else (candidates.receivers, candidates.senders)
        )
        transmitters = tx[universe]
        # Each sender transmits once, on its first link in the universe.
        # Only the transmitters x attempting block of affectances is read.
        block = candidates.affectance_block(
            universe[first_positions(transmitters)],
            attempting,
            powers,
            self.params,
            dual=not forward,
            workspace=self._workspace,
        )
        # A receiving endpoint that is itself transmitting in this slot
        # cannot measure anything (half-duplex).
        sending = np.zeros(candidates.state.capacity, dtype=bool)
        sending[transmitters] = True
        return attempting[_within_threshold(block, threshold) & ~sending[rx[attempting]]]
