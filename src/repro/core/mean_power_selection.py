"""Feasible-subset selection with mean power by random sampling (Section 8.1).

Given the O(1)-sparse candidate set ``T(M)``, the average affectance under
mean power is O(Upsilon) (Lemma 14), so sampling every link independently with
probability ``Theta(1 / Upsilon)`` leaves each sampled link with expected
affectance below a constant; the links that actually succeed on the channel
form a feasible set of expected size ``Omega(|T(M)| / Upsilon)`` (Lemma 15).

The implementation runs the sampling as a real slot-pair on the SINR channel:
a data slot in which every sampled link transmits with mean power, and an
acknowledgment slot confirming to each sender whether its transmission got
through (the paper notes this extra acknowledgment slot explicitly in the
proof of Theorem 16).  A link's sampling coin in attempt ``k`` is the counter
hash of its ``(sender id, receiver id, k)`` under the call's seed
(:mod:`repro.coins`).

The slot pairs run on positions: candidates are (sender, receiver) slots of
one geometry store (:class:`~repro.sinr.PositionedLinks`), decoded through
that store's channel.  ``TreeViaCapacity`` passes its ``T(M)`` as slots of
the population's store; ``Link`` candidates get a tiled store over their
endpoints, which decodes sender x receiver rectangles without an n x n
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..coins import _hash_from, _hash_u64, _uniform_cut, seed_word
from ..links import Link, LinkSet
from ..sinr import CachedChannel, MeanPower, PositionedLinks, PowerAssignment, SINRParameters
from ..sinr.power import _LengthPower
from ..state import TiledNetworkState, first_positions
from .quantities import upsilon

__all__ = ["MeanPowerSelectionResult", "MeanPowerSelector"]

#: Stream tag of the links' sampling coins.
_MEAN_POWER_STREAM = 0x4D504F57


@dataclass(frozen=True)
class MeanPowerSelectionResult:
    """Outcome of one mean-power sampling selection.

    Attributes:
        selected: the links that succeeded in both directions (feasible under
            mean power by construction).
        power: the mean-power assignment used.
        slots_used: channel slots consumed by the selection.
        attempts: how many slot-pairs were run before a non-empty set emerged.
        probability: the per-link sampling probability used.
    """

    selected: LinkSet
    power: PowerAssignment
    slots_used: int
    attempts: int
    probability: float


class MeanPowerSelector:
    """Samples a feasible subset of a sparse link set under mean power.

    Args:
        params: physical-model parameters.
        probability: per-link sampling probability.  ``None`` (default) uses
            ``min(0.5, sampling_scale / Upsilon)`` as in Lemma 15.
        sampling_scale: numerator of the default probability.
    """

    def __init__(
        self,
        params: SINRParameters,
        *,
        probability: float | None = None,
        sampling_scale: float = 2.0,
    ):
        if probability is not None and not (0.0 < probability <= 1.0):
            raise ValueError("probability must be in (0, 1]")
        if sampling_scale <= 0:
            raise ValueError("sampling_scale must be positive")
        self.params = params
        self.probability = probability
        self.sampling_scale = sampling_scale

    def sampling_probability(self, n: int, delta: float) -> float:
        """The default ``Theta(1 / Upsilon)`` sampling probability."""
        if self.probability is not None:
            return self.probability
        return min(0.5, self.sampling_scale / max(upsilon(n, delta), 1.0))

    def select(
        self,
        candidates: Sequence[Link] | LinkSet | PositionedLinks,
        rng: np.random.Generator,
        *,
        n_hint: int | None = None,
        delta_hint: float | None = None,
        max_attempts: int = 5,
        power: PowerAssignment | None = None,
    ) -> MeanPowerSelectionResult:
        """Run slot-pairs of mean-power sampling until a non-empty set succeeds.

        Args:
            candidates: the candidate links (typically ``T(M)``), as ``Link``
                objects or as slots of a store to decode from.
            rng: source of the call's seed word.
            n_hint: the network size used in the Upsilon estimate (defaults to
                the number of candidate nodes).
            delta_hint: the distance ratio used in the Upsilon estimate
                (defaults to the candidates' length spread).
            max_attempts: slot-pairs to try before returning an empty result.
            power: mean-power assignment to use (defaults to a noise-safe one
                scaled to the candidates' longest link).  Callers that verify
                schedules later should pass the same assignment they verify
                with, because mean-power feasibility is not scale-invariant in
                the presence of noise.
        """
        link_list: list[Link] | None = None
        if isinstance(candidates, PositionedLinks):
            positioned = candidates
        else:
            link_list = list(candidates)
            store = TiledNetworkState.from_links(link_list)
            slots = np.array(
                [store.slot_of_id(node_id) for link in link_list for node_id in link.endpoint_ids],
                dtype=np.intp,
            )
            lengths = [link.length for link in link_list]
            positioned = PositionedLinks(store, slots[0::2], slots[1::2], lengths=lengths)
        if not len(positioned):
            return MeanPowerSelectionResult(
                LinkSet(), MeanPower.for_max_length(self.params, 1.0), 0, 0, 0.0
            )

        state, senders, receivers = positioned.state, positioned.senders, positioned.receivers
        lengths = positioned.lengths.tolist()
        longest, shortest = max(lengths), min(lengths)
        n = n_hint
        if n is None:
            endpoint = np.zeros(state.capacity, dtype=bool)
            endpoint[senders] = endpoint[receivers] = True
            n = int(endpoint.sum())
        delta = delta_hint if delta_hint is not None else max(longest / max(shortest, 1e-12), 1.0)
        probability = self.sampling_probability(max(n, 2), max(delta, 1.0))
        if power is None:
            power = MeanPower.for_max_length(self.params, max(longest, 1.0))

        def links_at(indices: np.ndarray) -> list[Link]:
            if link_list is None:
                return positioned.links(indices)
            return [link_list[i] for i in indices.tolist()]

        def levels(indices: np.ndarray) -> np.ndarray:
            if isinstance(power, _LengthPower):  # oblivious: by length, no Link objects
                return np.array([power.of_length(lengths[i]) for i in indices.tolist()])
            return np.array(power.powers(links_at(indices)), dtype=float)

        channel = CachedChannel(self.params, state=state)
        ends = (state.ids[senders], state.ids[receivers])
        keys = _hash_u64(_MEAN_POWER_STREAM, seed_word(rng), *ends)
        cut = _uniform_cut(probability)

        slots_used = 0
        for attempt in range(1, max_attempts + 1):
            sampled = np.flatnonzero(_hash_from(keys, attempt) < cut)
            first_slot = slots_used  # data/ack slot indices for fading models
            slots_used += 2
            if not sampled.size:
                continue
            won = self._run_slot_pair(ends, sampled, levels, channel, first_slot)
            if won.size:
                return MeanPowerSelectionResult(
                    selected=LinkSet(links_at(won)),
                    power=power,
                    slots_used=slots_used,
                    attempts=attempt,
                    probability=probability,
                )
        return MeanPowerSelectionResult(LinkSet(), power, slots_used, max_attempts, probability)

    # -- internals ----------------------------------------------------------

    def _run_slot_pair(
        self,
        ends: tuple[np.ndarray, np.ndarray],
        sampled: np.ndarray,
        levels: Callable[[np.ndarray], np.ndarray],
        channel: CachedChannel,
        first_slot: int = 0,
    ) -> np.ndarray:
        """Data + acknowledgment slot for the sampled candidates; return the winners.

        ``ends`` holds every candidate's sender and receiver id, ``levels``
        gives the candidates' powers at some of their indices.
        """
        senders, receivers = ends
        # One transmission per radio per slot.
        attempts = sampled[first_positions(senders[sampled])]
        tx, rx = senders[attempts].tolist(), receivers[attempts].tolist()
        heard = channel.decoded_senders(tx, levels(attempts), rx, first_slot)
        data_ok = attempts[[heard.get(r) == t for t, r in zip(tx, rx)]]
        if not data_ok.size:
            return data_ok
        # A receiver decodes one sender, so the acknowledging receivers are
        # distinct radios too.
        tx, rx = senders[data_ok].tolist(), receivers[data_ok].tolist()
        acked = channel.decoded_senders(rx, levels(data_ok), tx, first_slot + 1)
        return data_ok[[acked.get(t) == r for t, r in zip(tx, rx)]]
