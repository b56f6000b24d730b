"""``Distr-Cap``: distributed feasible-subset selection with arbitrary power
(Section 8.2).

The algorithm distributes Kesselheim's centralized capacity selection
(Eqn. 3).  Links are processed in phases by length class - exactly the classes
in which ``Init`` formed them - so that, as in the centralized algorithm,
every link is examined only against links no longer than itself.  Each phase
is a slot-pair:

* **slot 1**: the already-selected set ``T'`` transmits with *linear* power;
  candidate links of the current class transmit with probability ``p``, also
  with linear power.  A candidate's receiver records a success when the
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..links import Link, LinkSet, length_class_index
from ..sinr import LinearPower, LinkArrayCache, SINRParameters
from ..state import DecodeWorkspace, NetworkState
from .power_solver import is_power_controllable

__all__ = ["DistrCapResult", "DistrCapSelector"]


@dataclass(frozen=True)
class DistrCapResult:
    """Outcome of a ``Distr-Cap`` run.

    Attributes:
        selected: the selected link set ``T'``.
        slots_used: channel slots consumed (two per phase).
        phases: number of length-class phases executed.
        power_controllable: whether the selected set passed the exact
            power-control feasibility test (it should, by Lemmas 17-18).
    """

    selected: LinkSet
    slots_used: int
    phases: int
    power_controllable: bool


class DistrCapSelector:
    """Distributed capacity selection with arbitrary (post-computed) power.

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
    ) -> DistrCapResult:
        """Run the phased selection over the candidate set.

        Args:
            candidates: candidate links (typically ``T(M)``).
            rng: source of randomness.
            link_rounds: optional mapping from link endpoint ids to the
                ``Init`` round in which the link was formed; links formed in
                the same round share a length class and are processed in the
                same phase.  When absent, phases are derived from link lengths.
        """
        link_list = list(candidates)
        if not link_list:
            return DistrCapResult(LinkSet(), 0, 0, True)

        linear = LinearPower.for_noise(self.params)
        # One node-geometry store for the whole run, shared by every phase
        # slot's LinkArrayCache (over its oriented sub-universe).
        state = self._geometry_state(link_list)
        phases = self._partition_into_phases(link_list, link_rounds)
        tau = self.constants.distr_cap_tau
        gamma = self.constants.duality_gamma
        probability = self.constants.selection_probability

        selected: list[Link] = []
        used_nodes: set[int] = set()
        slots_used = 0
        for _, phase_links in sorted(phases.items()):
            slots_used += 2
            eligible = [
                link
                for link in phase_links
                if link.sender.id not in used_nodes and link.receiver.id not in used_nodes
            ]
            if not eligible:
                continue
            survivors = self._phase_slot(
                eligible, selected, linear, rng, probability, tau / 4.0, state, forward=True
            )
            if not survivors:
                continue
            winners = self._phase_slot(
                survivors, selected, linear, rng, 1.0, gamma * tau / 4.0, state, forward=False
            )
            for link in winners:
                if link.sender.id in used_nodes or link.receiver.id in used_nodes:
                    continue
                selected.append(link)
                used_nodes.add(link.sender.id)
                used_nodes.add(link.receiver.id)

        selected_set = LinkSet(selected)
        controllable = is_power_controllable(list(selected_set), self.params)
        return DistrCapResult(
            selected=selected_set,
            slots_used=slots_used,
            phases=len(phases),
            power_controllable=controllable,
        )

    # -- internals ----------------------------------------------------------

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
        rng: np.random.Generator,
        probability: float,
        threshold: float,
        state: NetworkState,
        *,
        forward: bool,
    ) -> list[Link]:
        """One slot of a phase; returns the candidates whose check passed.

        In the forward slot the candidates and the selected set transmit in
        their link direction; in the dual slot both transmit in the reverse
        direction.  A candidate passes when the affectance measured at the
        receiving endpoint (from every other transmitter in the slot) is at
        most ``threshold``.
        """
        attempting = [link for link in candidates if rng.random() < probability]
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
        block = cache.affectance_block(
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
