"""Parity tests for the vectorized slot engine (PR 2).

Pins, on randomized instances and on the documented edge cases:

* the vectorized ``Channel._decode`` / ``decode_arrays`` against the seed
  per-listener loop (``decode_reference``), bit-for-bit;
* ``resolve_indices`` against ``Channel.resolve``;
* the batch simulator engine against the seed (legacy) engine, the
  ``LegacySimulator`` oracle, including
  delivered observations and traces;
* the columnar trace against the record-based trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Node, Point
from repro.runtime import ColumnarTrace, ExecutionTrace, NodeAgent, Simulator, SlotRecord, spawn_agent_rngs
from repro.sinr import (
    CachedChannel,
    Channel,
    NodeArrayCache,
    SINRParameters,
    Transmission,
    decode_arrays,
)

from .conftest import make_node
from .oracles import LegacySimulator, decode_reference


class _SeedDecodeChannel(Channel):
    """Channel whose decode is the seed per-listener loop (the oracle)."""

    def _decode(self, transmissions, active_listeners, dist, powers):
        return decode_reference(transmissions, active_listeners, dist, powers, self.params)


def _random_instance(rng: np.random.Generator, n: int, *, colocated: bool = False):
    """Random nodes, transmitter subset and powers; optionally colocate a pair."""
    xy = rng.uniform(0.0, 20.0, size=(n, 2))
    if colocated and n >= 2:
        xy[1] = xy[0]  # a transmitter sits exactly on a listener
    nodes = [Node(id=i, position=Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]
    k = max(1, int(rng.integers(1, max(2, n // 2))))
    tx = list(rng.choice(n, size=k, replace=False))
    powers = rng.uniform(0.5, 50.0, size=k)
    transmissions = [
        Transmission(sender=nodes[i], power=float(p), message=("m", int(i)))
        for i, p in zip(tx, powers)
    ]
    return nodes, transmissions


def _assert_receptions_equal(a, b):
    assert set(a) == set(b)
    for listener_id, rec in a.items():
        other = b[listener_id]
        assert rec.sender.id == other.sender.id
        assert rec.message == other.message
        # bit-for-bit: identical float or both infinite
        assert rec.sinr == other.sinr


class TestDecodeParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_matches_reference(self, params, seed):
        rng = np.random.default_rng(seed)
        nodes, transmissions = _random_instance(rng, 24)
        vectorized = Channel(params).resolve(transmissions, nodes)
        reference = _SeedDecodeChannel(params).resolve(transmissions, nodes)
        _assert_receptions_equal(vectorized, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_colocated_transmitter_matches_reference(self, params, seed):
        # dist <= 0 -> infinite received power; with two infinite signals the
        # seed loop decodes nothing (inf - inf = nan); one must still decode.
        rng = np.random.default_rng(100 + seed)
        nodes, transmissions = _random_instance(rng, 16, colocated=True)
        vectorized = Channel(params).resolve(transmissions, nodes)
        reference = _SeedDecodeChannel(params).resolve(transmissions, nodes)
        _assert_receptions_equal(vectorized, reference)

    def test_single_colocated_pair_decodes_nothing(self):
        # An infinitely strong signal makes interference = inf - inf = nan in
        # the seed loop, which decodes nothing; the vectorized pass must agree.
        params = SINRParameters(noise=0.0)
        sender, listener = make_node(0, 1.0, 1.0), make_node(1, 1.0, 1.0)
        transmissions = [Transmission(sender, 1.0, "x")]
        receptions = Channel(params).resolve(transmissions, [listener])
        reference = _SeedDecodeChannel(params).resolve(transmissions, [listener])
        assert receptions == reference == {}

    def test_zero_interference_zero_noise_gives_infinite_sinr(self):
        params = SINRParameters(noise=0.0)
        sender, listener = make_node(0, 0.0, 0.0), make_node(1, 3.0, 0.0)
        receptions = Channel(params).resolve([Transmission(sender, 1e-6, "x")], [listener])
        assert receptions[1].sinr == np.inf
        reference = _SeedDecodeChannel(params).resolve(
            [Transmission(sender, 1e-6, "x")], [listener]
        )
        _assert_receptions_equal(receptions, reference)

    def test_half_duplex_skips_transmitting_listeners(self, params):
        rng = np.random.default_rng(7)
        nodes, transmissions = _random_instance(rng, 12)
        vectorized = Channel(params).resolve(transmissions, nodes)
        transmitting = {t.sender.id for t in transmissions}
        assert not transmitting & set(vectorized)

    def test_decode_arrays_matches_reference_elementwise(self, params):
        rng = np.random.default_rng(3)
        dist = rng.uniform(0.0, 10.0, size=(6, 9))
        dist[0, 0] = 0.0  # colocated pair
        powers = rng.uniform(0.1, 10.0, size=6)
        best, sinr, ok = decode_arrays(dist, powers, params)
        with np.errstate(divide="ignore"):
            received = powers[:, None] / np.maximum(dist, 1e-300) ** params.alpha
        received = np.where(dist <= 0, np.inf, received)
        total = received.sum(axis=0) + params.noise
        for j in range(dist.shape[1]):
            signals = received[:, j]
            expected_best = int(np.argmax(signals))
            interference = total[j] - signals[expected_best]
            expected_sinr = np.inf if interference <= 0 else float(signals[expected_best] / interference)
            assert int(best[j]) == expected_best
            assert (np.isnan(sinr[j]) and np.isnan(expected_sinr)) or sinr[j] == expected_sinr
            assert bool(ok[j]) == (expected_sinr >= params.beta)


class TestResolveIndicesParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_resolve(self, params, seed):
        rng = np.random.default_rng(200 + seed)
        nodes, transmissions = _random_instance(rng, 20, colocated=(seed % 2 == 0))
        channel = CachedChannel(params, nodes)
        expected = channel.resolve(transmissions, nodes)

        transmitting = {t.sender.id for t in transmissions}
        listeners = [node for node in nodes if node.id not in transmitting]
        tx_idx = np.array([channel.cache.index_of_id(t.sender.id) for t in transmissions])
        rx_idx = np.array([channel.cache.index_of_id(n.id) for n in listeners])
        powers = np.array([t.power for t in transmissions])
        best, sinr, ok = channel.resolve_indices(tx_idx, rx_idx, powers)

        decoded = {
            listeners[j].id: (transmissions[int(best[j])], float(sinr[j]))
            for j in np.nonzero(ok)[0]
        }
        assert set(decoded) == set(expected)
        for listener_id, (transmission, value) in decoded.items():
            assert expected[listener_id].sender.id == transmission.sender.id
            assert expected[listener_id].sinr == value

    @pytest.mark.parametrize("seed", range(4))
    def test_full_universe_matches_subset(self, params, seed):
        # resolve_indices_full decodes every cache column; listener columns
        # must be bit-identical to a resolve_indices call on the subset.
        rng = np.random.default_rng(400 + seed)
        nodes, transmissions = _random_instance(rng, 20, colocated=(seed % 2 == 0))
        channel = CachedChannel(params, nodes)
        tx_idx = np.array([channel.cache.index_of_id(t.sender.id) for t in transmissions])
        powers = np.array([t.power for t in transmissions])
        transmitting = {t.sender.id for t in transmissions}
        rx_idx = np.array([i for i, node in enumerate(nodes) if node.id not in transmitting])

        best_full, sinr_full, ok_full = channel.resolve_indices_full(tx_idx, powers)
        best_sub, sinr_sub, ok_sub = channel.resolve_indices(tx_idx, rx_idx, powers)
        assert np.array_equal(best_full[rx_idx], best_sub)
        assert np.array_equal(sinr_full[rx_idx], sinr_sub, equal_nan=True)
        assert np.array_equal(ok_full[rx_idx], ok_sub)

    def test_plain_channel_takes_explicit_cache(self, params):
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 1.0, 0.0), make_node(2, 5.0, 0.0)]
        cache = NodeArrayCache(nodes)
        channel = Channel(params)
        power = params.min_power_for(1.0)
        best, sinr, ok = channel.resolve_indices(
            np.array([0]), np.array([1, 2]), np.array([power]), cache
        )
        expected = channel.resolve([Transmission(nodes[0], power, "x")], nodes[1:])
        assert bool(ok[0]) == (1 in expected)
        assert bool(ok[1]) == (2 in expected)

    def test_empty_inputs(self, params):
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 1.0, 0.0)]
        channel = CachedChannel(params, nodes)
        best, sinr, ok = channel.resolve_indices(np.array([]), np.array([0, 1]), np.array([]))
        assert best.size == 2 and not ok.any()
        best, sinr, ok = channel.resolve_indices(np.array([0]), np.array([]), np.array([1.0]))
        assert best.size == 0


class _CoinAgent(NodeAgent):
    """Transmits with probability 0.3; records everything it hears."""

    def __init__(self, node, rng, power):
        super().__init__(node, rng)
        self.power = power
        self.heard: list[tuple[int, int, float]] = []

    def act_batch(self, slot):
        if self.rng.random() < 0.3:
            return self.power, ("beacon", self.node.id, slot)
        return None

    def act(self, slot):
        action = self.act_batch(slot)
        if action is None:
            return None
        return Transmission(self.node, action[0], action[1])

    def observe(self, slot, reception):
        if reception is not None:
            self.heard.append((slot, reception.sender.id, reception.sinr))


def _coin_agents(params, n, seed):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 15.0, size=(n, 2))
    nodes = [Node(id=i, position=Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]
    power = params.min_power_for(3.0)
    return [
        _CoinAgent(node, agent_rng, power)
        for node, agent_rng in zip(nodes, spawn_agent_rngs(np.random.default_rng(seed + 1), n))
    ]


class TestEngineParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_equals_legacy(self, params, seed):
        slots = 60
        batch_agents = _coin_agents(params, 25, seed)
        legacy_agents = _coin_agents(params, 25, seed)
        batch = Simulator(batch_agents, Channel(params))
        legacy = LegacySimulator(legacy_agents, Channel(params))
        batch.run(slots, label="parity")
        legacy.run(slots, label="parity")
        assert batch.trace.records == legacy.trace.records
        assert [a.heard for a in batch_agents] == [a.heard for a in legacy_agents]

    def test_batch_with_columnar_trace_equals_legacy_records(self, params):
        slots = 40
        batch_agents = _coin_agents(params, 18, 11)
        legacy_agents = _coin_agents(params, 18, 11)
        batch = Simulator(batch_agents, Channel(params), trace_level="columnar")
        legacy = LegacySimulator(legacy_agents, Channel(params))
        batch.run(slots, label="col")
        legacy.run(slots, label="col")
        assert batch.trace.records == legacy.trace.records
        assert batch.trace.slots_used == legacy.trace.slots_used
        assert batch.trace.transmissions_sent == legacy.trace.transmissions_sent
        assert batch.trace.successful_receptions == legacy.trace.successful_receptions
        assert batch.trace.busy_slots() == legacy.trace.busy_slots()

    def test_counts_trace_matches_records_trace(self, params):
        slots = 40
        counts_agents = _coin_agents(params, 18, 13)
        record_agents = _coin_agents(params, 18, 13)
        counts = Simulator(counts_agents, Channel(params), trace_level="counts")
        records = Simulator(record_agents, Channel(params))
        counts.run(slots)
        records.run(slots)
        assert counts.trace.slots_used == records.trace.slots_used
        assert counts.trace.transmissions_sent == records.trace.transmissions_sent
        assert counts.trace.successful_receptions == records.trace.successful_receptions
        assert counts.trace.busy_slots() == records.trace.busy_slots()
        assert counts.trace.summary() == records.trace.summary()
        with pytest.raises(ValueError):
            counts.trace.records

    def test_batch_engine_falls_back_on_custom_channel(self, params):
        # A Channel subclass may override resolve(); the batch engine must
        # route through the object path, not bypass it via index arrays.
        class MuteChannel(Channel):
            def resolve(self, transmissions, listeners):
                return {}

        agents = _coin_agents(params, 10, 17)
        simulator = Simulator(agents, MuteChannel(params))
        simulator.run(30)
        assert all(not agent.heard for agent in agents)
        assert simulator.trace.successful_receptions == 0

    def test_bad_power_raises_even_when_every_agent_transmits(self, params):
        # Matches the legacy engine, where Transmission.__post_init__ raises
        # for every action even in a slot with no listeners.
        class BadPowerAgent(_CoinAgent):
            def act_batch(self, slot):
                return 0.0, None

        agents = _coin_agents(params, 4, 23)
        bad = [BadPowerAgent(a.node, a.rng, a.power) for a in agents]
        simulator = Simulator(bad, Channel(params))
        with pytest.raises(ValueError, match="power must be positive"):
            simulator.step()

    def test_invalid_engine_and_trace_level_rejected(self, params):
        agents = _coin_agents(params, 4, 19)
        with pytest.raises(TypeError):  # the batch engine is the only engine
            Simulator(agents, Channel(params), engine="legacy")
        with pytest.raises(ValueError):
            Simulator(agents[:2], Channel(params), trace_level="everything")


class TestColumnarTrace:
    def test_record_roundtrip(self):
        trace = ColumnarTrace(metadata={"phase": "t"})
        trace.record(SlotRecord(slot=0, transmitters=(1, 2), receptions={3: 1}, label="a"))
        trace.record(SlotRecord(slot=1, transmitters=(), receptions={}, label="b"))
        assert trace.slots_used == 2
        assert trace.busy_slots() == 1
        assert trace.transmissions_sent == 2
        assert trace.successful_receptions == 1
        assert trace.records[0] == SlotRecord(0, (1, 2), {3: 1}, "a")
        assert len(trace.slots_with_label("b")) == 1
        assert trace.summary()["phase"] == "t"

    def test_is_an_execution_trace(self):
        assert isinstance(ColumnarTrace(), ExecutionTrace)

    def test_counts_mode_aggregates_only(self):
        trace = ColumnarTrace(reception_detail=False)
        trace.append_slot(0, [5, 6], [(7, 5)], "x")
        assert trace.slots_used == 1
        assert trace.transmissions_sent == 2
        assert trace.successful_receptions == 1
        with pytest.raises(ValueError):
            trace.records
        with pytest.raises(ValueError):
            trace.slots_with_label("x")


class TestLinkSucceedsVectorized:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_reference(self, params, seed):
        rng = np.random.default_rng(300 + seed)
        nodes, transmissions = _random_instance(rng, 14)
        sender, receiver = nodes[-2], nodes[-1]
        power = float(rng.uniform(0.5, 20.0))
        channel = Channel(params)
        result = channel.link_succeeds(sender, receiver, power, transmissions)

        others = [
            (t.sender, t.power) for t in transmissions if t.sender.id != sender.id
        ]
        if any(node.id == receiver.id for node, _ in others):
            expected = False
        else:
            distance = sender.distance_to(receiver)
            signal = power / distance**params.alpha
            interference = sum(
                p / max(node.distance_to(receiver), 1e-300) ** params.alpha
                for node, p in others
            )
            expected = signal / (params.noise + interference) >= params.beta
        assert result == expected

    def test_cached_channel_agrees_with_plain(self, params):
        rng = np.random.default_rng(9)
        nodes, transmissions = _random_instance(rng, 14)
        sender, receiver = nodes[-2], nodes[-1]
        plain = Channel(params)
        cached = CachedChannel(params, nodes)
        for power in (0.5, 3.0, 40.0):
            assert plain.link_succeeds(sender, receiver, power, transmissions) == (
                cached.link_succeeds(sender, receiver, power, transmissions)
            )

    def test_outside_universe_falls_back(self, params):
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 1.0, 0.0)]
        cached = CachedChannel(params, nodes)
        stranger = make_node(99, 0.5, 4.0)
        concurrent = [Transmission(stranger, 2.0, "j")]
        plain = Channel(params)
        assert cached.link_succeeds(nodes[0], nodes[1], 5.0, concurrent) == (
            plain.link_succeeds(nodes[0], nodes[1], 5.0, concurrent)
        )
