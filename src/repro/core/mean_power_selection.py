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
proof of Theorem 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..links import Link, LinkSet
from ..sinr import CachedChannel, MeanPower, PowerAssignment, SINRParameters
from ..state import TiledNetworkState
from .quantities import upsilon

__all__ = ["MeanPowerSelectionResult", "MeanPowerSelector"]


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
        candidates: Sequence[Link] | LinkSet,
        rng: np.random.Generator,
        *,
        n_hint: int | None = None,
        delta_hint: float | None = None,
        max_attempts: int = 5,
        power: PowerAssignment | None = None,
    ) -> MeanPowerSelectionResult:
        """Run slot-pairs of mean-power sampling until a non-empty set succeeds.

        Args:
            candidates: the candidate links (typically ``T(M)``).
            rng: source of randomness.
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
        link_list = list(candidates)
        empty_power = MeanPower.for_max_length(self.params, 1.0)
        if not link_list:
            return MeanPowerSelectionResult(LinkSet(), empty_power, 0, 0, 0.0)

        longest = max(link.length for link in link_list)
        shortest = min(link.length for link in link_list)
        n = n_hint if n_hint is not None else len({l.sender.id for l in link_list} | {l.receiver.id for l in link_list})
        delta = delta_hint if delta_hint is not None else max(longest / max(shortest, 1e-12), 1.0)
        probability = self.sampling_probability(max(n, 2), max(delta, 1.0))
        if power is None:
            power = MeanPower.for_max_length(self.params, max(longest, 1.0))
        # The slot pairs decode sender x receiver rectangles only, which a
        # tiled store computes from coordinates without an n x n matrix.
        channel = CachedChannel(self.params, state=TiledNetworkState.from_links(link_list))

        slots_used = 0
        for attempt in range(1, max_attempts + 1):
            sampled = [link for link in link_list if rng.random() < probability]
            first_slot = slots_used  # data/ack slot indices for fading models
            slots_used += 2
            if not sampled:
                continue
            selected = self._run_slot_pair(sampled, power, channel, first_slot)
            if selected:
                return MeanPowerSelectionResult(
                    selected=LinkSet(selected),
                    power=power,
                    slots_used=slots_used,
                    attempts=attempt,
                    probability=probability,
                )
        return MeanPowerSelectionResult(LinkSet(), power, slots_used, max_attempts, probability)

    # -- internals ----------------------------------------------------------

    def _run_slot_pair(
        self,
        sampled: Sequence[Link],
        power: PowerAssignment,
        channel: CachedChannel,
        first_slot: int = 0,
    ) -> list[Link]:
        """Data + acknowledgment slot for the sampled links; return the winners."""
        by_sender: dict[int, Link] = {}
        for link in sampled:
            # One transmission per radio per slot.
            by_sender.setdefault(link.sender.id, link)
        attempts = list(by_sender.values())
        heard = channel.decoded_senders(
            list(by_sender),
            [power.power(link) for link in attempts],
            [link.receiver.id for link in attempts],
            first_slot,
        )
        data_ok = [link for link in attempts if heard.get(link.receiver.id) == link.sender.id]
        if not data_ok:
            return []
        # A receiver decodes one sender, so the acknowledging receivers are
        # distinct radios too.
        acked = channel.decoded_senders(
            [link.receiver.id for link in data_ok],
            [power.power(link) for link in data_ok],
            [link.sender.id for link in data_ok],
            first_slot + 1,
        )
        return [link for link in data_ok if acked.get(link.sender.id) == link.receiver.id]
