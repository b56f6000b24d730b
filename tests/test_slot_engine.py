"""Parity tests for the vectorized slot engine (PR 2).

Pins, on randomized instances and on the documented edge cases:

* the decode chain behind ``Channel.resolve`` / ``resolve_indices`` against
  the seed per-listener loop (``decode_reference``), bit-for-bit;
* ``resolve_indices`` against ``Channel.resolve``;
* the array simulator engine stepping a beacon program against the seed
  (legacy) engine, the ``LegacySimulator`` oracle, stepping the same
  protocol as agents, including delivered observations and traces;
* the columnar trace's record round trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Node, Point
from repro.runtime import ExecutionTrace, Simulator, SlotRecord, spawn_agent_rngs
from repro.sinr import (
    CachedChannel,
    Channel,
    NodeArrayCache,
    SINRParameters,
    Transmission,
)
from repro.sinr.channel import ensure_positive_powers
from repro.state import DecodeWorkspace, NetworkState, TiledNetworkState

from .beacon import BeaconAgent, BeaconProgram
from .conftest import make_node
from .oracles import LegacySimulator, decode_reference, link_succeeds


class _SeedDecodeChannel(Channel):
    """Channel whose ``resolve`` is the seed per-listener loop (the oracle)."""

    def resolve(self, transmissions, listeners, slot=None):
        sending = {t.sender.id for t in transmissions}
        active = [node for node in listeners if node.id not in sending]
        if not transmissions or not active:
            return {}
        dist = _hypot(
            np.array([[t.sender.x, t.sender.y] for t in transmissions]),
            np.array([[node.x, node.y] for node in active]),
        )
        powers = np.array([t.power for t in transmissions])
        return decode_reference(transmissions, active, dist, powers, self.params)


def _hypot(tx_xy, rx_xy):
    diff = tx_xy[:, None, :] - rx_xy[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


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
        """The index decode chain (once fronted by ``decode_arrays``)."""
        rng = np.random.default_rng(3)
        xy = rng.uniform(0.0, 10.0, size=(15, 2))
        xy[6] = xy[0]  # colocated pair
        nodes = [Node(id=i, position=Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]
        dist = _hypot(xy[:6], xy[6:])
        powers = rng.uniform(0.1, 10.0, size=6)
        best, sinr, ok = Channel(params).resolve_indices(
            np.arange(6), np.arange(6, 15), powers, NodeArrayCache(nodes)
        )
        with np.errstate(divide="ignore"):
            received = powers[:, None] / np.maximum(dist, 1e-300) ** params.alpha
        received = np.where(dist <= 0, np.inf, received)
        total = received.sum(axis=0) + params.noise
        for j in range(dist.shape[1]):
            signals = received[:, j]
            expected_best = int(np.argmax(signals))
            with np.errstate(invalid="ignore"):  # inf - inf beside a colocated transmitter
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

    @pytest.mark.parametrize("store", [NetworkState, TiledNetworkState])
    def test_colocated_columns_decode_nothing(self, params, store):
        # Listener 1 sits on transmitter 0: its received entry is infinite,
        # inf - inf is NaN, and it decodes nothing on every path.
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 0.0, 0.0), make_node(2, 1.0, 0.0)]
        nodes += [make_node(3, 9.0, 4.0), make_node(4, 2.0, 6.0)]
        channel = CachedChannel(params, state=store(nodes))
        tx, powers = np.array([0, 3]), np.array([2.0, 0.5])
        for decoded in _index_decodes(channel, tx, powers):
            best, sinr, ok = decoded
            assert np.isnan(sinr[1]) and not ok[1]
        _assert_decodes_agree(channel, nodes, tx, powers)

    @pytest.mark.parametrize("store", [NetworkState, TiledNetworkState])
    def test_single_transmitter_without_noise_is_infinite(self, store):
        params = SINRParameters(noise=0.0)
        nodes = [make_node(i, 3.0 * i, 1.0) for i in range(5)]
        channel = CachedChannel(params, state=store(nodes))
        tx, powers = np.array([2]), np.array([1e-6])
        for best, sinr, ok in _index_decodes(channel, tx, powers):
            listeners = np.array([0, 1, 3, 4])
            assert np.all(sinr[listeners] == np.inf) and ok[listeners].all()
        _assert_decodes_agree(channel, nodes, tx, powers)

    def test_empty_inputs(self, params):
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 1.0, 0.0)]
        channel = CachedChannel(params, nodes)
        best, sinr, ok = channel.resolve_indices(np.array([]), np.array([0, 1]), np.array([]))
        assert best.size == 2 and not ok.any()
        best, sinr, ok = channel.resolve_indices(np.array([0]), np.array([]), np.array([1.0]))
        assert best.size == 0


def _index_decodes(channel, tx, powers):
    """The whole-universe decode without and with an arena (copied)."""
    plain = channel.resolve_indices_full(tx, powers)
    arena = channel.resolve_indices_full(tx, powers, workspace=DecodeWorkspace())
    return plain, tuple(np.array(part, copy=True) for part in arena)


def _assert_decodes_agree(channel, nodes, tx, powers):
    """Full and listener-subset decodes, with and without an arena, and the
    per-listener oracle, agree bit for bit."""
    plain, arena = _index_decodes(channel, tx, powers)
    for left, right in zip(plain, arena):
        assert np.array_equal(left, right, equal_nan=True)
    rx = np.setdiff1d(np.arange(len(nodes)), tx)
    subset = channel.resolve_indices(tx, rx, powers)
    subset_arena = channel.resolve_indices(tx, rx, powers, workspace=DecodeWorkspace())
    for full, left, right in zip(plain, subset, subset_arena):
        assert np.array_equal(full[rx], left, equal_nan=True)
        assert np.array_equal(left, right, equal_nan=True)
    transmissions = [Transmission(nodes[i], float(p)) for i, p in zip(tx.tolist(), powers)]
    dist = np.array([[nodes[i].distance_to(node) for node in nodes] for i in tx])
    with np.errstate(invalid="ignore"):  # the loop meets inf - inf as the seed did
        reference = decode_reference(transmissions, nodes, dist, powers, channel.params)
    best, sinr, ok = plain
    assert {
        nodes[j].id: (nodes[int(tx[best[j]])].id, float(sinr[j])) for j in np.flatnonzero(ok)
    } == {listener: (rec.sender.id, rec.sinr) for listener, rec in reference.items()}


def _coin_nodes(n, seed):
    xy = np.random.default_rng(seed).uniform(0.0, 15.0, size=(n, 2))
    return [Node(id=i, position=Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


def _coin_program(params, n, seed) -> BeaconProgram:
    """Every node beacons on its own 0.3 coin."""
    rngs = spawn_agent_rngs(np.random.default_rng(seed + 1), n)
    return BeaconProgram(_coin_nodes(n, seed), params.min_power_for(3.0), rngs=rngs)


def _coin_agents(params, n, seed) -> list[BeaconAgent]:
    """:func:`_coin_program` as one agent per node."""
    power = params.min_power_for(3.0)
    return [
        BeaconAgent(node, agent_rng, power, coin=True)
        for node, agent_rng in zip(
            _coin_nodes(n, seed), spawn_agent_rngs(np.random.default_rng(seed + 1), n)
        )
    ]


class TestEngineParity:
    @pytest.mark.parametrize("seed", range(3))
    def test_batch_equals_legacy(self, params, seed):
        slots = 60
        program = _coin_program(params, 25, seed)
        legacy_agents = _coin_agents(params, 25, seed)
        batch = Simulator(program, Channel(params))
        legacy = LegacySimulator(legacy_agents, Channel(params))
        batch.run(slots, label="parity")
        legacy.run(slots, label="parity")
        assert batch.trace.records == legacy.trace.records
        assert program.heard == [a.heard for a in legacy_agents]

    def test_batch_with_columnar_trace_equals_legacy_records(self, params):
        slots = 40
        program = _coin_program(params, 18, 11)
        legacy_agents = _coin_agents(params, 18, 11)
        batch = Simulator(program, Channel(params))
        legacy = LegacySimulator(legacy_agents, Channel(params))
        batch.run(slots, label="col")
        legacy.run(slots, label="col")
        assert batch.trace.records == legacy.trace.records
        assert batch.trace.slots_used == legacy.trace.slots_used
        assert batch.trace.transmissions_sent == legacy.trace.transmissions_sent
        assert batch.trace.successful_receptions == legacy.trace.successful_receptions
        assert batch.trace.busy_slots() == legacy.trace.busy_slots()

    def test_bad_power_raises_even_when_every_agent_transmits(self, params):
        # As in the legacy engine, where Transmission.__post_init__ raises
        # for every action even in a slot with no listeners.
        program = BeaconProgram(_coin_nodes(4, 23), 0.0, period=1)
        simulator = Simulator(program, Channel(params))
        with pytest.raises(ValueError, match="power must be positive"):
            simulator.step()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_power_raises(self, params, bad):
        # nan <= 0 is False, so a plain sign test would let NaN through and
        # decode nothing; inf would swamp every listener.
        program = BeaconProgram(_coin_nodes(4, 23), bad, period=2)
        simulator = Simulator(program, Channel(params))
        with pytest.raises(ValueError, match="power must be positive"):
            simulator.step()

    def test_invalid_engine_and_trace_level_rejected(self, params):
        program = _coin_program(params, 4, 19)
        with pytest.raises(TypeError):  # the array engine is the only engine
            Simulator(program, Channel(params), engine="legacy")
        with pytest.raises(TypeError):  # the columnar trace is the only trace
            Simulator(program, Channel(params), trace_level="records")
        with pytest.raises(TypeError):  # every simulator records into its own trace
            Simulator(program, Channel(params), trace=ExecutionTrace())


class TestPowerValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_batch_check_rejects(self, bad):
        with pytest.raises(ValueError, match="power must be positive"):
            ensure_positive_powers(np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError, match="power must be positive"):
            Transmission(make_node(0, 0.0, 0.0), bad)

    def test_batch_check_accepts(self):
        ensure_positive_powers(np.array([1e-300, 1.0, 1e300]))
        ensure_positive_powers(np.zeros(0))
        Transmission(make_node(0, 0.0, 0.0), 1e300)


class TestColumnarTrace:
    def test_record_roundtrip(self):
        trace = ExecutionTrace(metadata={"phase": "t"})
        trace.record(SlotRecord(slot=0, transmitters=(1, 2), receptions={3: 1}, label="a"))
        trace.record(SlotRecord(slot=1, transmitters=(), receptions={}, label="b"))
        assert trace.slots_used == 2
        assert trace.busy_slots() == 1
        assert trace.transmissions_sent == 2
        assert trace.successful_receptions == 1
        assert trace.records[0] == SlotRecord(0, (1, 2), {3: 1}, "a")
        assert len(trace.slots_with_label("b")) == 1
        assert trace.summary()["phase"] == "t"


class TestLinkSucceedsVectorized:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_reference(self, params, seed):
        rng = np.random.default_rng(300 + seed)
        nodes, transmissions = _random_instance(rng, 14)
        sender, receiver = nodes[-2], nodes[-1]
        power = float(rng.uniform(0.5, 20.0))
        channel = Channel(params)
        result = link_succeeds(channel, sender, receiver, power, transmissions)

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
            assert link_succeeds(plain, sender, receiver, power, transmissions) == (
                link_succeeds(cached, sender, receiver, power, transmissions)
            )

    def test_outside_universe_falls_back(self, params):
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 1.0, 0.0)]
        cached = CachedChannel(params, nodes)
        stranger = make_node(99, 0.5, 4.0)
        concurrent = [Transmission(stranger, 2.0, "j")]
        plain = Channel(params)
        assert link_succeeds(cached, nodes[0], nodes[1], 5.0, concurrent) == (
            link_succeeds(plain, nodes[0], nodes[1], 5.0, concurrent)
        )
