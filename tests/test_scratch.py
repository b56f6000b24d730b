"""Scratch-arena parity: workspace decode == allocating decode, bit for bit.

The :class:`~repro.state.DecodeWorkspace` paths must be *indistinguishable*
from the allocating paths they replace: same elementwise operations, reused
destinations.  These tests pin that across random shapes, consecutive
decodes reusing one arena (the no-aliasing property), capacity growth of
the workspace, all three gain models, and the trial-stacked kernels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics import ComposedGain, DeterministicPathLoss, LogNormalShadowing, RayleighFading
from repro.geometry import deployment_by_name
from repro.links import Link
from repro.sinr import (
    CachedChannel,
    LinearPower,
    LinkArrayCache,
    SINRParameters,
    decode_arrays,
    decode_many,
)
from repro.state import DecodeWorkspace

GAIN_MODELS = (
    None,
    LogNormalShadowing(sigma_db=6.0, seed=11),
    RayleighFading(seed=7),
)


def _model_name(model) -> str:
    return "deterministic" if model is None else type(model).__name__


def assert_same(left, right) -> None:
    fb, fs, fo = left
    bb, bs, bo = right
    assert np.array_equal(fb, bb)
    assert np.array_equal(fs, bs, equal_nan=True)
    assert np.array_equal(fo, bo)


def _copy(result):
    return tuple(np.array(part, copy=True) for part in result)


class TestDecodeWorkspace:
    def test_same_key_reuses_memory(self):
        ws = DecodeWorkspace()
        first = ws.floats("k", 4, 8)
        second = ws.floats("k", 4, 8)
        assert first.base is second.base
        assert ws.allocations == 1

    def test_growth_and_shrink_reuse(self):
        ws = DecodeWorkspace()
        small = ws.floats("k", 8)
        assert small.shape == (8,)
        big = ws.floats("k", 16, 4)
        assert big.shape == (16, 4)
        assert ws.allocations == 2
        # Shrinking back reuses the grown pool: no further allocation.
        again = ws.floats("k", 8)
        assert again.shape == (8,)
        assert ws.allocations == 2

    def test_dtypes_and_contiguity(self):
        ws = DecodeWorkspace()
        assert ws.floats("f", 3, 3).dtype == np.float64
        assert ws.ints("i", 5).dtype == np.intp
        assert ws.bools("b", 2, 2).dtype == np.bool_
        for array in (ws.floats("f", 3, 3), ws.ints("i", 5), ws.bools("b", 2, 2)):
            assert array.flags.c_contiguous
        assert ws.nbytes > 0


class TestDecodeArraysParity:
    @pytest.mark.parametrize("model", GAIN_MODELS, ids=_model_name)
    def test_random_shapes_one_arena(self, model):
        """One workspace across many differently-shaped decodes == allocating.

        Reusing a single arena for every iteration is the property under
        test: consecutive decodes must never alias each other's results,
        including across capacity growth of the pools (shapes vary, so the
        pools grow mid-sequence).
        """
        params = SINRParameters(gain_model=model)
        rng = np.random.default_rng(3)
        ws = DecodeWorkspace()
        for trial in range(25):
            ntx = int(rng.integers(1, 12))
            nrx = int(rng.integers(1, 48))
            dist = rng.random((ntx, nrx)) * 10.0
            if trial % 4 == 0:
                dist.flat[int(rng.integers(dist.size))] = 0.0  # colocated pair
            powers = rng.random(ntx) + 0.1
            fade = None
            if model is not None:
                fade = model.fade(
                    np.arange(ntx, dtype=np.int64),
                    np.arange(nrx, dtype=np.int64),
                    trial,
                )
            expected = decode_arrays(dist, powers, params, fade=fade)
            got = decode_arrays(dist, powers, params, fade=fade, workspace=ws)
            assert_same(got, expected)

    def test_consecutive_decodes_do_not_corrupt_each_other(self):
        """Snapshot of decode A survives decode B through the same arena."""
        params = SINRParameters()
        rng = np.random.default_rng(9)
        ws = DecodeWorkspace()
        dist_a = rng.random((6, 20)) + 0.5
        dist_b = rng.random((6, 20)) + 0.5
        powers = rng.random(6) + 0.5
        snap_a = _copy(decode_arrays(dist_a, powers, params, workspace=ws))
        live_a = decode_arrays(dist_a, powers, params, workspace=ws)
        decode_arrays(dist_b, powers, params, workspace=ws)
        # The live views were overwritten by decode B (that is the arena
        # contract)...
        assert_same(_copy(live_a), decode_arrays(dist_b, powers, params))
        # ...but the snapshot equals the allocating result of decode A.
        assert_same(snap_a, decode_arrays(dist_a, powers, params))


class TestChannelWorkspaceParity:
    @pytest.fixture(scope="class")
    def universe(self):
        nodes = deployment_by_name("uniform", 40, np.random.default_rng(12))
        return nodes

    @pytest.mark.parametrize("model", GAIN_MODELS, ids=_model_name)
    def test_resolve_indices_paths(self, universe, model):
        params = SINRParameters(gain_model=model)
        channel = CachedChannel(params, universe)
        rng = np.random.default_rng(5)
        ws = DecodeWorkspace()
        n = len(universe)
        for slot in range(12):
            ntx = int(rng.integers(1, 8))
            tx = np.sort(rng.choice(n, size=ntx, replace=False)).astype(np.intp)
            powers = rng.random(ntx) + 0.2
            expected = channel.resolve_indices_full(tx, powers, slot=slot)
            got = channel.resolve_indices_full(tx, powers, slot=slot, workspace=ws)
            assert_same(got, expected)
            rx = np.setdiff1d(np.arange(n, dtype=np.intp), tx)
            rx = rx[rng.random(rx.size) < 0.7]
            if rx.size == 0:
                continue
            expected = channel.resolve_indices(tx, rx, powers, slot=slot)
            got = channel.resolve_indices(tx, rx, powers, slot=slot, workspace=ws)
            assert_same(got, expected)

    def test_simulator_batch_engine_unchanged(self, universe):
        """The workspace-backed batch engine equals the legacy seed engine."""
        from repro.runtime import NodeAgent, Simulator, spawn_agent_rngs
        from repro.sinr import Channel, Transmission

        from .oracles import LegacySimulator

        params = SINRParameters()

        class Beacon(NodeAgent):
            def __init__(self, node, rng, power):
                super().__init__(node, rng)
                self.power = power
                self.heard = 0

            def act_batch(self, slot):
                if slot % 5 == self.node.id % 5:
                    return self.power, ("b", self.node.id)
                return None

            def act(self, slot):
                action = self.act_batch(slot)
                if action is None:
                    return None
                return Transmission(self.node, action[0], action[1])

            def observe(self, slot, reception):
                if reception is not None:
                    self.heard += 1

        power = params.min_power_for(1.5)

        def run(simulator_cls):
            rngs = spawn_agent_rngs(np.random.default_rng(2), len(universe))
            agents = [Beacon(node, rng, power) for node, rng in zip(universe, rngs)]
            simulator = simulator_cls(agents, Channel(params))
            simulator.run(60)
            return [agent.heard for agent in agents], simulator.trace

        batch_heard, batch_trace = run(Simulator)
        legacy_heard, legacy_trace = run(LegacySimulator)
        assert batch_heard == legacy_heard
        assert batch_trace.successful_receptions == legacy_trace.successful_receptions


class TestStackedDecodeParity:
    @pytest.mark.parametrize("model", GAIN_MODELS, ids=_model_name)
    def test_decode_many_equals_looped_decode_arrays(self, model):
        params = SINRParameters(gain_model=model)
        rng = np.random.default_rng(21)
        ws = DecodeWorkspace()
        for _ in range(6):
            trials = int(rng.integers(1, 6))
            ntx = int(rng.integers(1, 9))
            nrx = int(rng.integers(1, 30))
            dist = rng.random((ntx, nrx)) * 5.0
            powers = rng.random((trials, ntx)) + 0.1
            tx_ids = np.arange(ntx, dtype=np.int64)
            rx_ids = np.arange(nrx, dtype=np.int64)
            slots = np.arange(trials, dtype=np.int64)
            fade = None if model is None else model.fade_stack(tx_ids, rx_ids, slots)
            best, sinr, ok = decode_many(dist, powers, params, fade=fade, workspace=ws)
            assert best.shape == sinr.shape == ok.shape == (trials, nrx)
            for t in range(trials):
                trial_fade = None if model is None else model.fade(tx_ids, rx_ids, int(slots[t]))
                expected = decode_arrays(dist, powers[t], params, fade=trial_fade)
                assert_same((best[t], sinr[t], ok[t]), expected)

    def test_decode_many_requires_a_stack(self):
        params = SINRParameters()
        with pytest.raises(ValueError, match="trial dimension"):
            decode_many(np.ones((2, 3)), np.ones(2), params)

    @pytest.mark.parametrize(
        "model",
        (
            None,
            DeterministicPathLoss(),
            LogNormalShadowing(sigma_db=4.0, seed=3),
            RayleighFading(seed=5),
            ComposedGain((LogNormalShadowing(sigma_db=2.0, seed=1), RayleighFading(seed=2))),
        ),
        ids=lambda m: "none" if m is None else type(m).__name__,
    )
    def test_resolve_indices_many_equals_per_slot(self, model):
        params = SINRParameters(gain_model=model)
        nodes = deployment_by_name("uniform", 30, np.random.default_rng(8))
        channel = CachedChannel(params, nodes)
        rng = np.random.default_rng(17)
        tx = np.sort(rng.choice(30, size=6, replace=False)).astype(np.intp)
        trials = 5
        powers = rng.random((trials, 6)) + 0.3
        slots = np.arange(100, 100 + trials, dtype=np.int64)
        ws = DecodeWorkspace()
        best, sinr, ok = channel.resolve_indices_many(tx, powers, slots=slots, workspace=ws)
        for t in range(trials):
            expected = channel.resolve_indices_full(tx, powers[t], slot=int(slots[t]))
            assert_same((best[t], sinr[t], ok[t]), expected)

    def test_fade_stack_matches_per_slot_fades(self):
        tx = np.array([3, 9, 27], dtype=np.int64)
        rx = np.array([1, 2, 5, 8], dtype=np.int64)
        slots = np.array([0, 4, 9], dtype=np.int64)
        for model in (
            RayleighFading(seed=13, block_slots=3),
            ComposedGain((LogNormalShadowing(sigma_db=3.0, seed=4), RayleighFading(seed=6))),
        ):
            stack = model.fade_stack(tx, rx, slots)
            assert stack.shape == (3, 3, 4)
            for t, slot in enumerate(slots.tolist()):
                assert np.array_equal(stack[t], model.fade(tx, rx, slot))
        shadowing = LogNormalShadowing(sigma_db=5.0, seed=2)
        assert np.array_equal(shadowing.fade_stack(tx, rx, slots), shadowing.fade(tx, rx, None))
        assert DeterministicPathLoss().fade_stack(tx, rx, slots) is None


class TestAffectanceWorkspaceParity:
    def _links(self, n_nodes: int, seed: int) -> list[Link]:
        nodes = deployment_by_name("uniform", n_nodes, np.random.default_rng(seed))
        return [Link(nodes[i], nodes[(i + 1) % n_nodes]) for i in range(n_nodes)]

    @pytest.mark.parametrize("noise", [0.0, None], ids=["zero-noise", "default-noise"])
    def test_affectance_block(self, noise):
        params = SINRParameters() if noise is None else SINRParameters(noise=0.0)
        links = self._links(14, seed=31)
        power = LinearPower.for_noise(params)
        ws = DecodeWorkspace()
        rng = np.random.default_rng(2)
        for _ in range(6):
            cache = LinkArrayCache(links)
            rows = np.sort(rng.choice(len(links), size=5, replace=False)).astype(np.intp)
            cols = np.sort(rng.choice(len(links), size=7, replace=False)).astype(np.intp)
            expected = cache.affectance_block(rows, cols, power, params)
            got = cache.affectance_block(rows, cols, power, params, workspace=ws)
            assert np.array_equal(got, expected)

    def test_affectance_block_with_fading_falls_back(self):
        params = SINRParameters(gain_model=LogNormalShadowing(sigma_db=3.0, seed=9))
        links = self._links(10, seed=5)
        cache = LinkArrayCache(links)
        power = LinearPower.for_noise(params)
        rows = np.arange(4, dtype=np.intp)
        cols = np.arange(4, 10, dtype=np.intp)
        expected = cache.affectance_block(rows, cols, power, params)
        got = cache.affectance_block(rows, cols, power, params, workspace=DecodeWorkspace())
        assert np.array_equal(got, expected)
