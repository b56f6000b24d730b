"""Tests for repro.sinr.channel."""

from __future__ import annotations

import pytest

from repro.sinr import Channel, SINRParameters, Transmission, UniformPower

from .conftest import make_node
from .oracles import link_succeeds


class TestChannel:
    def test_single_transmission_received(self, params):
        channel = Channel(params)
        sender, receiver = make_node(0, 0, 0), make_node(1, 1, 0)
        power = params.min_power_for(1.0)
        receptions = channel.resolve([Transmission(sender, power, "hello")], [receiver])
        assert receiver.id in receptions
        assert receptions[receiver.id].message == "hello"
        assert receptions[receiver.id].sinr >= params.beta

    def test_insufficient_power_not_received(self, params):
        channel = Channel(params)
        sender, receiver = make_node(0, 0, 0), make_node(1, 10, 0)
        receptions = channel.resolve([Transmission(sender, 1e-3, "x")], [receiver])
        assert receptions == {}

    def test_transmitting_node_never_receives(self, params):
        channel = Channel(params)
        a, b = make_node(0, 0, 0), make_node(1, 1, 0)
        power = params.min_power_for(1.0)
        receptions = channel.resolve(
            [Transmission(a, power, "from-a"), Transmission(b, power, "from-b")], [a, b]
        )
        assert receptions == {}

    def test_collision_of_equal_signals(self, params):
        # Two senders at equal distance and power: SINR ~ 1 < beta -> nothing decoded.
        channel = Channel(SINRParameters(alpha=3.0, beta=1.5, noise=0.1))
        listener = make_node(2, 0, 0)
        left = make_node(0, -1, 0)
        right = make_node(1, 1, 0)
        receptions = channel.resolve(
            [Transmission(left, 10.0, "l"), Transmission(right, 10.0, "r")], [listener]
        )
        assert listener.id not in receptions

    def test_capture_of_dominant_signal(self, params):
        channel = Channel(params)
        listener = make_node(2, 0, 0)
        near = make_node(0, 1, 0)
        far = make_node(1, 100, 0)
        power = params.min_power_for(1.0)
        receptions = channel.resolve(
            [Transmission(near, power, "near"), Transmission(far, power, "far")], [listener]
        )
        assert receptions[listener.id].message == "near"

    def test_duplicate_sender_rejected(self, params):
        channel = Channel(params)
        sender = make_node(0, 0, 0)
        with pytest.raises(ValueError):
            channel.resolve(
                [Transmission(sender, 1.0, "a"), Transmission(sender, 2.0, "b")],
                [make_node(1, 1, 0)],
            )

    def test_empty_inputs(self, params):
        channel = Channel(params)
        assert channel.resolve([], [make_node(0, 0, 0)]) == {}
        assert channel.resolve([Transmission(make_node(0, 0, 0), 1.0, "x")], []) == {}

    def test_transmission_power_must_be_positive(self, params):
        with pytest.raises(ValueError):
            Transmission(make_node(0, 0, 0), 0.0, "x")

    def test_multicast_reception(self, params):
        # One sender, two listeners both in range: both decode the message.
        channel = Channel(params)
        sender = make_node(0, 0, 0)
        listeners = [make_node(1, 1, 0), make_node(2, 0, 1)]
        power = params.min_power_for(2.0)
        receptions = channel.resolve([Transmission(sender, power, "m")], listeners)
        assert set(receptions) == {1, 2}


class TestLinkSucceeds:
    def test_succeeds_without_interference(self, params):
        channel = Channel(params)
        sender, receiver = make_node(0, 0, 0), make_node(1, 1, 0)
        assert link_succeeds(channel, sender, receiver, params.min_power_for(1.0), [])

    def test_fails_when_receiver_is_transmitting(self, params):
        channel = Channel(params)
        sender, receiver = make_node(0, 0, 0), make_node(1, 1, 0)
        concurrent = [Transmission(receiver, 1.0, "busy")]
        assert not link_succeeds(channel, sender, receiver, params.min_power_for(1.0), concurrent)

    def test_fails_under_heavy_interference(self, params):
        channel = Channel(params)
        sender, receiver = make_node(0, 0, 0), make_node(1, 2, 0)
        jammer = make_node(2, 2.5, 0)
        concurrent = [Transmission(jammer, 1e6, "jam")]
        assert not link_succeeds(channel, sender, receiver, params.min_power_for(2.0), concurrent)

    def test_concurrent_as_mapping(self, params):
        channel = Channel(params)
        sender, receiver = make_node(0, 0, 0), make_node(1, 1, 0)
        other = make_node(2, 500, 0)
        concurrent = {other.id: (other, 1.0)}
        assert link_succeeds(channel, sender, receiver, params.min_power_for(1.0), concurrent)
