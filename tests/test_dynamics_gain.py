"""Tests for repro.dynamics.gain and its threading through the SINR kernels."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.dynamics import (
    ComposedGain,
    DeterministicPathLoss,
    LogNormalShadowing,
    RayleighFading,
)
from repro.exceptions import ConfigurationError
from repro.geometry import uniform_random
from repro.links import Link, LinkSet
from repro.runtime import Simulator
from repro.sinr import (
    CachedChannel,
    Channel,
    Reception,
    SINRParameters,
    Transmission,
    UniformPower,
)

from .beacon import BeaconAgent, BeaconProgram
from .conftest import make_node
from .oracles import LegacySimulator, LinkArrayCache, decode_reference, link_affectance_block


class TestModelProperties:
    def test_same_seed_same_fades(self):
        ids = np.arange(12)
        a = RayleighFading(seed=5).fade(ids, ids, slot=3)
        b = RayleighFading(seed=5).fade(ids, ids, slot=3)
        assert np.array_equal(a, b)

    def test_different_seed_different_fades(self):
        ids = np.arange(12)
        a = RayleighFading(seed=5).fade(ids, ids, slot=3)
        b = RayleighFading(seed=6).fade(ids, ids, slot=3)
        assert not np.array_equal(a, b)

    def test_rayleigh_slot_dependence_and_blocks(self):
        ids = np.arange(8)
        model = RayleighFading(seed=1, block_slots=4)
        assert np.array_equal(model.fade(ids, ids, slot=0), model.fade(ids, ids, slot=3))
        assert not np.array_equal(model.fade(ids, ids, slot=3), model.fade(ids, ids, slot=4))
        # slot=None is the slot-0 block, so slotless contexts are well defined.
        assert np.array_equal(model.fade(ids, ids, slot=None), model.fade(ids, ids, slot=0))

    def test_shadowing_is_symmetric_and_static(self):
        ids = np.arange(10)
        model = LogNormalShadowing(sigma_db=6.0, seed=2)
        fade = model.fade(ids, ids)
        assert np.array_equal(fade, fade.T)
        assert np.array_equal(fade, model.fade(ids, ids, slot=99))

    def test_subset_consistency(self):
        """Fades are functions of node ids: subsets slice the full matrix."""
        ids = np.arange(20)
        for model in (RayleighFading(seed=3), LogNormalShadowing(sigma_db=4.0, seed=3)):
            full = model.fade(ids, ids, slot=7)
            rows, cols = np.array([2, 11, 19]), np.array([0, 5, 6, 18])
            assert np.array_equal(
                model.fade(ids[rows], ids[cols], slot=7), full[np.ix_(rows, cols)]
            )

    def test_fade_pairs_matches_fade_diagonal(self):
        model = RayleighFading(seed=9)
        tx, rx = np.array([3, 1, 4]), np.array([7, 8, 2])
        pairs = model.fade_pairs(tx, rx, slot=5)
        full = model.fade(tx, rx, slot=5)
        assert np.array_equal(pairs, np.diagonal(full))

    def test_statistics_are_plausible(self):
        ids = np.arange(500)
        exp = RayleighFading(seed=0).fade(ids, ids)
        assert exp.mean() == pytest.approx(1.0, abs=0.02)
        assert np.all(exp > 0)
        shadow_db = 10.0 * np.log10(LogNormalShadowing(10.0, 0).fade(ids, ids))
        assert shadow_db.mean() == pytest.approx(0.0, abs=0.1)
        assert shadow_db.std() == pytest.approx(10.0, abs=0.2)

    def test_composition_multiplies(self):
        ids = np.arange(6)
        a = LogNormalShadowing(sigma_db=4.0, seed=1)
        b = RayleighFading(seed=2)
        combined = ComposedGain((a, b)).fade(ids, ids, slot=3)
        assert np.array_equal(combined, a.fade(ids, ids, slot=3) * b.fade(ids, ids, slot=3))

    def test_composed_of_deterministic_is_deterministic(self):
        assert ComposedGain((DeterministicPathLoss(),)).deterministic
        assert not ComposedGain((DeterministicPathLoss(), RayleighFading())).deterministic
        with pytest.raises(ConfigurationError):
            ComposedGain(())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LogNormalShadowing(sigma_db=-1.0)
        with pytest.raises(ConfigurationError):
            RayleighFading(block_slots=0)

    def test_models_are_hashable_and_picklable(self):
        model = RayleighFading(seed=4)
        params = SINRParameters(gain_model=model)
        assert hash(params) == hash(SINRParameters(gain_model=RayleighFading(seed=4)))
        clone = pickle.loads(pickle.dumps(params))
        ids = np.arange(5)
        assert np.array_equal(
            clone.gain_model.fade(ids, ids, slot=1), model.fade(ids, ids, slot=1)
        )


class TestDeterministicParity:
    """gain_model=None and DeterministicPathLoss must be bit-for-bit equal."""

    def _links(self, rng, m=24):
        nodes = uniform_random(2 * m, rng)
        return LinkSet(Link(nodes[2 * i], nodes[2 * i + 1]) for i in range(m))

    def test_decode_arrays_parity(self, params, rng):
        """The index decode chain (once fronted by ``decode_arrays``)."""
        tagged = params.with_overrides(gain_model=DeterministicPathLoss())
        plain_channel = CachedChannel(params, uniform_random(20, rng))
        tagged_channel = CachedChannel(tagged, cache=plain_channel.cache)
        tx, rx = np.arange(6), np.arange(6, 20)
        powers = rng.uniform(0.5, 80.0, size=6)
        for a, b in zip(
            plain_channel.resolve_indices(tx, rx, powers),
            tagged_channel.resolve_indices(tx, rx, powers, slot=17),
        ):
            assert np.array_equal(a, b)

    def test_link_cache_matrices_parity(self, params, rng):
        links = self._links(rng)
        tagged = params.with_overrides(gain_model=DeterministicPathLoss())
        power = UniformPower(params.min_power_for(max(l.length for l in links)))
        plain_cache, tagged_cache = LinkArrayCache(links), LinkArrayCache(links)
        assert np.array_equal(
            plain_cache.affectance_matrix(power, params),
            tagged_cache.affectance_matrix(power, tagged),
        )
        assert np.array_equal(
            plain_cache.sinr_values(power, params),
            tagged_cache.sinr_values(power, tagged),
        )
        assert np.array_equal(
            plain_cache.gain_matrix(params), tagged_cache.gain_matrix(tagged)
        )
        idx = np.array([1, 5, 9, 17])
        assert np.array_equal(
            plain_cache.sinr_values(power, params, idx),
            tagged_cache.sinr_values(power, tagged, idx),
        )
        rows, cols = np.array([0, 3, 7]), np.array([2, 4, 11, 20])
        assert np.array_equal(
            link_affectance_block(plain_cache, rows, cols, power, params),
            link_affectance_block(tagged_cache, rows, cols, power, tagged),
        )

    def test_channel_resolve_parity(self, params, rng):
        nodes = uniform_random(20, rng)
        tagged = params.with_overrides(gain_model=DeterministicPathLoss())
        power = params.min_power_for(3.0)
        transmissions = [Transmission(nodes[i], power, ("m", i)) for i in (0, 4, 9)]
        a = Channel(params).resolve(transmissions, nodes)
        b = Channel(tagged).resolve(transmissions, nodes, slot=17)
        assert set(a) == set(b)
        for node_id in a:
            assert a[node_id].sinr == b[node_id].sinr
            assert a[node_id].sender.id == b[node_id].sender.id

    def test_zero_sigma_shadowing_is_unit_fade(self, params, rng):
        """sigma_db=0 exercises the stochastic path with exact unit fades."""
        model = LogNormalShadowing(sigma_db=0.0, seed=7)
        ids = np.arange(9)
        assert np.array_equal(model.fade(ids, ids), np.ones((9, 9)))
        plain = CachedChannel(params, uniform_random(12, rng))
        faded = CachedChannel(params.with_overrides(gain_model=model), cache=plain.cache)
        tx, rx = np.arange(3), np.arange(3, 12)
        powers = rng.uniform(1.0, 10.0, size=3)
        for a, b in zip(
            plain.resolve_indices(tx, rx, powers), faded.resolve_indices(tx, rx, powers)
        ):
            assert np.array_equal(a, b)

    def test_experiment_row_parity(self):
        """A full experiment produces identical rows under the tagged model."""
        from repro.experiments import ExperimentConfig, e1_init

        base = ExperimentConfig.quick().with_overrides(sizes=(24,))
        tagged = base.with_overrides(
            params=base.params.with_overrides(gain_model=DeterministicPathLoss())
        )
        assert e1_init.run(base).rows == e1_init.run(tagged).rows


class TestFadingChannel:
    def _nodes(self, n=24):
        return uniform_random(n, np.random.default_rng(42))

    def _run(self, params, slots=60):
        """A period-5 beacon program; per node, the (slot, sender) it heard."""
        program = BeaconProgram(self._nodes(), params.min_power_for(2.0), period=5)
        simulator = Simulator(program, Channel(params))
        simulator.run(slots)
        return program.heard, simulator.trace

    def _run_legacy(self, params, slots=60):
        """:meth:`_run` as one agent per node on the seed engine."""
        nodes = self._nodes()
        rngs = np.random.default_rng(43).spawn(len(nodes))
        power = params.min_power_for(2.0)
        agents = [BeaconAgent(node, rng, power, period=5) for node, rng in zip(nodes, rngs)]
        legacy = LegacySimulator(agents, Channel(params))
        legacy.run(slots)
        return [agent.heard for agent in agents], legacy.trace

    @pytest.mark.parametrize(
        "model",
        [RayleighFading(seed=3), LogNormalShadowing(sigma_db=6.0, seed=3)],
        ids=["rayleigh", "shadowing"],
    )
    def test_batch_and_legacy_engines_agree_under_fading(self, params, model):
        faded = params.with_overrides(gain_model=model)
        batch, batch_trace = self._run(faded)
        legacy, legacy_trace = self._run_legacy(faded)
        assert batch == legacy
        assert batch_trace.records == legacy_trace.records
        assert batch_trace.successful_receptions > 0

    def test_same_seed_reproduces_trace(self, params):
        faded = params.with_overrides(gain_model=RayleighFading(seed=11))
        a, trace_a = self._run(faded)
        b, trace_b = self._run(faded)
        assert a == b
        assert trace_a.successful_receptions == trace_b.successful_receptions

    def test_fading_changes_outcomes(self, params):
        plain, _ = self._run(params)
        faded, _ = self._run(
            params.with_overrides(gain_model=RayleighFading(seed=11))
        )
        assert plain != faded

    def test_cached_shadowing_fade_matches_direct_evaluation(self, params):
        """Slot-invariant fades come from the NodeArrayCache cache, bitwise."""
        nodes = uniform_random(14, np.random.default_rng(3))
        model = LogNormalShadowing(sigma_db=5.0, seed=13)
        channel = CachedChannel(params.with_overrides(gain_model=model), nodes)
        cache = channel.cache
        full = cache.fade_matrix(model)
        assert full is cache.fade_matrix(model)  # computed once
        assert np.array_equal(full, model.fade(cache.ids, cache.ids))
        tx = np.array([1, 6], dtype=np.intp)
        rx = np.array([0, 3, 9], dtype=np.intp)
        powers = np.array([params.min_power_for(40.0), params.min_power_for(2.0)])
        best, sinr, ok = channel.resolve_indices(tx, rx, powers, slot=5)
        senders, listeners = [nodes[i] for i in tx], [nodes[j] for j in rx]
        transmissions = [Transmission(node, float(p)) for node, p in zip(senders, powers)]
        direct = decode_reference(
            transmissions,
            listeners,
            cache.distance_matrix()[np.ix_(tx, rx)],
            powers,
            params,
            model.fade(cache.ids[tx], cache.ids[rx], 5),
        )
        assert direct and direct == {
            listeners[j].id: Reception(senders[best[j]], None, float(sinr[j]))
            for j in np.flatnonzero(ok)
        }

    def test_resolve_indices_full_matches_subset_under_fading(self, params):
        nodes = uniform_random(16, np.random.default_rng(1))
        faded = params.with_overrides(gain_model=RayleighFading(seed=5))
        channel = CachedChannel(faded, nodes)
        tx = np.array([0, 3, 8], dtype=np.intp)
        powers = np.full(3, params.min_power_for(2.0))
        rx = np.array([i for i in range(16) if i not in {0, 3, 8}], dtype=np.intp)
        best_f, sinr_f, ok_f = channel.resolve_indices_full(tx, powers, slot=9)
        best_s, sinr_s, ok_s = channel.resolve_indices(tx, rx, powers, slot=9)
        assert np.array_equal(best_f[rx], best_s)
        assert np.array_equal(sinr_f[rx], sinr_s)
        assert np.array_equal(ok_f[rx], ok_s)

    def test_decode_reference_agrees_with_decode_arrays_under_fade(self, params, rng):
        nodes = [make_node(i, float(i), 0.5 * i) for i in range(10)]
        transmissions = [
            Transmission(nodes[i], float(p), ("x", i))
            for i, p in zip((0, 2, 5), rng.uniform(5.0, 50.0, 3))
        ]
        listeners = [n for n in nodes if n.id not in (0, 2, 5)]
        tx_xy = np.array([[t.sender.x, t.sender.y] for t in transmissions])
        rx_xy = np.array([[n.x, n.y] for n in listeners])
        diff = tx_xy[:, None, :] - rx_xy[None, :, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        powers = np.array([t.power for t in transmissions])
        fade = RayleighFading(seed=2).fade(
            np.array([t.sender.id for t in transmissions]),
            np.array([n.id for n in listeners]),
            slot=4,
        )
        faded = params.with_overrides(gain_model=RayleighFading(seed=2))
        got = Channel(faded).resolve(transmissions, listeners, slot=4)
        reference = decode_reference(transmissions, listeners, dist, powers, params, fade)
        assert got and got == reference


class TestFadedLinkMatrices:
    def test_sinr_values_match_manual_computation(self, params):
        nodes = [make_node(i, 3.0 * i, 0.0) for i in range(6)]
        links = [Link(nodes[0], nodes[1]), Link(nodes[2], nodes[3]), Link(nodes[4], nodes[5])]
        cache = LinkArrayCache(links)
        model = LogNormalShadowing(sigma_db=5.0, seed=8)
        faded = params.with_overrides(gain_model=model)
        power = UniformPower(500.0)
        got = cache.sinr_values(power, faded)

        sender_ids = np.array([l.sender.id for l in links])
        receiver_ids = np.array([l.receiver.id for l in links])
        cross = model.fade(sender_ids, receiver_ids)
        signal_fade = model.fade_pairs(sender_ids, receiver_ids)
        expected = np.empty(3)
        for j, link in enumerate(links):
            signal = 500.0 * signal_fade[j] / link.length**params.alpha
            interference = sum(
                500.0
                * cross[i, j]
                / links[i].sender.distance_to(link.receiver) ** params.alpha
                for i in range(3)
                if i != j
            )
            expected[j] = signal / (params.noise + interference)
        assert np.allclose(got, expected, rtol=1e-12)

    def test_faded_affectance_subset_slicing_consistent(self, params, rng):
        nodes = uniform_random(40, rng)
        links = [Link(nodes[2 * i], nodes[2 * i + 1]) for i in range(20)]
        faded = params.with_overrides(gain_model=RayleighFading(seed=6))
        power = UniformPower(params.min_power_for(max(l.length for l in links)))
        cache = LinkArrayCache(links)
        full = cache.affectance_matrix(power, faded)
        idx = np.array([1, 4, 9, 15])
        assert np.array_equal(
            cache.affectance_matrix(power, faded, idx), full[np.ix_(idx, idx)]
        )
        assert np.array_equal(
            link_affectance_block(cache, idx, idx, power, faded), full[np.ix_(idx, idx)]
        )

    def test_scalar_affectance_consistent_with_matrix_under_fading(self, params, rng):
        """The scalar helpers and the matrix kernel share one faded model."""
        from repro.sinr import affectance_between_links, link_cost

        nodes = uniform_random(12, rng)
        links = [Link(nodes[2 * i], nodes[2 * i + 1]) for i in range(6)]
        faded = params.with_overrides(gain_model=LogNormalShadowing(sigma_db=7.0, seed=4))
        power = UniformPower(params.min_power_for(max(l.length for l in links)))
        matrix = LinkArrayCache(links).affectance_matrix(power, faded)
        for i in range(len(links)):
            for j in range(len(links)):
                if i == j:
                    continue
                scalar = affectance_between_links(links[i], links[j], power, faded)
                assert scalar == pytest.approx(matrix[i, j], rel=1e-12)
        plain_cost = link_cost(links[0], power.power(links[0]), params)
        faded_cost = link_cost(links[0], power.power(links[0]), faded)
        assert faded_cost != plain_cost  # the fade reaches the scalar cost too

    def test_faded_and_plain_matrices_differ(self, params, rng):
        nodes = uniform_random(20, rng)
        links = [Link(nodes[2 * i], nodes[2 * i + 1]) for i in range(10)]
        faded = params.with_overrides(gain_model=RayleighFading(seed=6))
        power = UniformPower(params.min_power_for(max(l.length for l in links)))
        cache = LinkArrayCache(links)
        assert not np.array_equal(
            cache.affectance_matrix(power, params),
            cache.affectance_matrix(power, faded),
        )
        assert not np.array_equal(
            cache.gain_matrix(params), cache.gain_matrix(faded)
        )
