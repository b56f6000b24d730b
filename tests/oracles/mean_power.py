"""Mean-power sampling on ``Link`` objects, as it ran before it selected by
position, and its slot pair on the object channel API.

:class:`LinkPathMeanPowerSelector` is :meth:`~repro.core.MeanPowerSelector.select`
before candidates became store slots: the sampling loop walks ``Link``
objects, every call builds a private tiled store over the candidates'
endpoints (``TiledNetworkState.from_links``), and the slot pair decodes in
node ids through :meth:`~repro.sinr.CachedChannel.decoded_senders`.

:class:`ReferenceMeanPowerSelector` keeps that sampling loop and replaces
only the data + acknowledgment slot pair: every sampled link is a
:class:`~repro.sinr.Transmission` resolved by :meth:`~repro.sinr.Channel.resolve`,
which checks the powers, the one-transmission-per-radio rule and half-duplex
itself.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.coins import _hash_from, _hash_u64, _uniform_cut, seed_word
from repro.core import MeanPowerSelectionResult, MeanPowerSelector
from repro.core.mean_power_selection import _MEAN_POWER_STREAM
from repro.links import Link, LinkSet
from repro.sinr import CachedChannel, Channel, MeanPower, PowerAssignment, Transmission
from repro.state import TiledNetworkState


class LinkPathMeanPowerSelector(MeanPowerSelector):
    """:class:`MeanPowerSelector` on link objects and a private tiled store."""

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
        link_list = list(candidates)
        empty_power = MeanPower.for_max_length(self.params, 1.0)
        if not link_list:
            return MeanPowerSelectionResult(LinkSet(), empty_power, 0, 0, 0.0)

        longest = max(link.length for link in link_list)
        shortest = min(link.length for link in link_list)
        n = (
            n_hint
            if n_hint is not None
            else len({l.sender.id for l in link_list} | {l.receiver.id for l in link_list})
        )
        delta = delta_hint if delta_hint is not None else max(longest / max(shortest, 1e-12), 1.0)
        probability = self.sampling_probability(max(n, 2), max(delta, 1.0))
        if power is None:
            power = MeanPower.for_max_length(self.params, max(longest, 1.0))
        channel = CachedChannel(self.params, state=TiledNetworkState.from_links(link_list))
        ends = np.array([link.endpoint_ids for link in link_list], dtype=np.int64).T
        keys = _hash_u64(_MEAN_POWER_STREAM, seed_word(rng), *ends)
        cut = _uniform_cut(probability)

        slots_used = 0
        for attempt in range(1, max_attempts + 1):
            heads = (_hash_from(keys, attempt) < cut).tolist()
            sampled = [link for link, head in zip(link_list, heads) if head]
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

    def _run_slot_pair(  # type: ignore[override]
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


class ReferenceMeanPowerSelector(LinkPathMeanPowerSelector):
    """:class:`LinkPathMeanPowerSelector` with the object-path slot pair."""

    def _run_slot_pair(
        self,
        sampled: Sequence[Link],
        power: PowerAssignment,
        channel: object,
        first_slot: int = 0,
    ) -> list[Link]:
        """Data + acknowledgment slot for the sampled links; return the winners."""
        channel = Channel(self.params)
        by_sender: dict[int, Link] = {}
        for link in sampled:
            # One transmission per radio per slot.
            by_sender.setdefault(link.sender.id, link)
        attempts = list(by_sender.values())

        data_transmissions = [
            Transmission(sender=link.sender, power=power.power(link), message=link)
            for link in attempts
        ]
        data_receptions = channel.resolve(
            data_transmissions, [link.receiver for link in attempts], slot=first_slot
        )
        data_ok = [
            link
            for link in attempts
            if data_receptions.get(link.receiver.id) is not None
            and data_receptions[link.receiver.id].sender.id == link.sender.id
        ]
        if not data_ok:
            return []
        ack_transmissions = [
            Transmission(sender=link.receiver, power=power.power(link), message=link)
            for link in data_ok
        ]
        ack_receptions = channel.resolve(
            ack_transmissions, [link.sender for link in data_ok], slot=first_slot + 1
        )
        return [
            link
            for link in data_ok
            if ack_receptions.get(link.sender.id) is not None
            and ack_receptions[link.sender.id].sender.id == link.receiver.id
        ]
