"""Mean-power sampling's slot pair on the object channel API, as it ran before
:class:`~repro.core.MeanPowerSelector` decoded on index arrays.

:class:`ReferenceMeanPowerSelector` keeps the selector's sampling loop and
replaces only the data + acknowledgment slot pair: every sampled link is a
:class:`~repro.sinr.Transmission` resolved by :meth:`~repro.sinr.Channel.resolve`,
which checks the powers, the one-transmission-per-radio rule and half-duplex
itself.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import MeanPowerSelector
from repro.links import Link
from repro.sinr import Channel, PowerAssignment, Transmission


class ReferenceMeanPowerSelector(MeanPowerSelector):
    """:class:`MeanPowerSelector` with the object-path slot pair."""

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
