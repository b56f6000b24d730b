"""Scratch-arena parity: workspace decode == allocating decode, bit for bit.

The :class:`~repro.state.DecodeWorkspace` paths must be *indistinguishable*
from the allocating paths they replace: same elementwise operations, reused
destinations.  These tests pin that across random shapes, consecutive
decodes reusing one arena (the no-aliasing property), capacity growth of
the workspace, all three gain models, and the per-trial
``resolve_indices_many`` loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics import ComposedGain, DeterministicPathLoss, LogNormalShadowing, RayleighFading
from repro.geometry import Node, Point, deployment_by_name
from repro.links import Link
from repro.sinr import (
    CachedChannel,
    LinearPower,
    LinkArrayCache,
    NodeArrayCache,
    SINRParameters,
    Transmission,
)
from repro.state import DecodeWorkspace, NetworkState, TiledNetworkState
from repro.state.kernels import pairwise_distances

from .oracles import decode_reference, link_affectance_block

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


def _decode_universe(params, n: int = 60) -> CachedChannel:
    """A channel over ``n`` random nodes plus one sitting on node 0."""
    nodes = deployment_by_name("uniform", n, np.random.default_rng(4))
    nodes.append(Node(id=10_000, position=nodes[0].position))
    return CachedChannel(params, nodes)


class TestDecodeArraysParity:
    """The index decode chain (once fronted by ``decode_arrays``) on an arena."""

    @pytest.mark.parametrize("model", GAIN_MODELS, ids=_model_name)
    def test_random_shapes_one_arena(self, model):
        """One workspace across many differently-shaped decodes == allocating.

        Reusing a single arena for every iteration is the property under
        test: consecutive decodes must never alias each other's results,
        including across capacity growth of the pools (shapes vary, so the
        pools grow mid-sequence).
        """
        params = SINRParameters(gain_model=model)
        channel = _decode_universe(params)
        n = len(channel.cache)
        rng = np.random.default_rng(3)
        ws = DecodeWorkspace()
        for trial in range(25):
            ntx = int(rng.integers(1, 12))
            nrx = int(rng.integers(1, 48))
            tx = rng.choice(n, size=ntx, replace=False)
            rx = rng.choice(n, size=nrx, replace=False)
            if trial % 4 == 0:
                tx[0], rx[0] = 0, n - 1  # colocated pair
            powers = rng.random(ntx) + 0.1
            expected = channel.resolve_indices(tx, rx, powers, slot=trial)
            got = channel.resolve_indices(tx, rx, powers, slot=trial, workspace=ws)
            assert_same(got, expected)

    def test_consecutive_decodes_do_not_corrupt_each_other(self):
        """Snapshot of decode A survives decode B through the same arena."""
        channel = _decode_universe(SINRParameters())
        rng = np.random.default_rng(9)
        ws = DecodeWorkspace()
        tx_a, tx_b = np.arange(6), np.arange(6, 12)
        rx = np.arange(12, 32)
        powers = rng.random(6) + 0.5
        snap_a = _copy(channel.resolve_indices(tx_a, rx, powers, workspace=ws))
        live_a = channel.resolve_indices(tx_a, rx, powers, workspace=ws)
        channel.resolve_indices(tx_b, rx, powers, workspace=ws)
        # The live views were overwritten by decode B (that is the arena
        # contract)...
        assert_same(_copy(live_a), channel.resolve_indices(tx_b, rx, powers))
        # ...but the snapshot equals the allocating result of decode A.
        assert_same(snap_a, channel.resolve_indices(tx_a, rx, powers))


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
        """The workspace-backed array engine equals the legacy seed engine."""
        from repro.runtime import Simulator
        from repro.sinr import Channel

        from .beacon import BeaconAgent, BeaconProgram
        from .oracles import LegacySimulator

        params = SINRParameters()
        power = params.min_power_for(1.5)
        program = BeaconProgram(universe, power, period=5)
        batch = Simulator(program, Channel(params))
        batch.run(60)
        rngs = np.random.default_rng(2).spawn(len(universe))
        agents = [BeaconAgent(node, rng, power, period=5) for node, rng in zip(universe, rngs)]
        legacy = LegacySimulator(agents, Channel(params))
        legacy.run(60)
        assert program.heard == [agent.heard for agent in agents]
        assert batch.trace.records == legacy.trace.records


def _view_channel(params, nodes, store: str, view: str) -> CachedChannel:
    """A channel over ``nodes`` through the given store and view layout.

    ``contiguous`` views put dense index ``k`` in slot ``k``; ``permuted``
    views address a shuffled slot order in a store that also holds two
    nodes outside the view.  ``dense+headroom`` leaves free slots, so the
    state matrices are wider than the view.
    """
    extra = [Node(id=1000 + k, position=Point(50.0 + k, -3.0)) for k in range(2)]
    universe = list(nodes) if view == "contiguous" else extra + list(nodes)[::-1]
    if store == "tiled":
        state = TiledNetworkState(universe)
    elif store == "dense+headroom":
        state = NetworkState(universe, capacity=len(universe) + 7)
    else:
        state = NetworkState(universe)
    cache = NodeArrayCache(nodes, state=state)
    assert cache._contiguous == (view == "contiguous")
    return CachedChannel(params, cache=cache)


def _reference_full(params, nodes, tx, powers, slot) -> dict:
    """``decode_reference`` over every node as a listener, fades included."""
    xy = np.array([[node.x, node.y] for node in nodes])
    ids = np.array([node.id for node in nodes], dtype=np.int64)
    model = params.effective_gain_model
    fade = None
    if model is not None:
        fade = model.fade(ids[tx], ids, None if model.slot_invariant else slot)
    transmissions = [Transmission(nodes[i], float(p)) for i, p in zip(tx.tolist(), powers)]
    # The loop meets inf - inf on a colocated column, as the seed did.
    with np.errstate(invalid="ignore"):
        return decode_reference(
            transmissions, nodes, pairwise_distances(xy[tx], xy), powers, params, fade
        )


def assert_matches_reference(result, reference: dict, nodes, tx) -> None:
    """Decoded columns, senders and SINRs equal the per-listener loop's."""
    best, sinr, ok = result
    decoded = {
        nodes[j].id: (nodes[int(tx[best[j]])].id, float(sinr[j])) for j in np.flatnonzero(ok)
    }
    assert decoded == {rx: (rec.sender.id, rec.sinr) for rx, rec in reference.items()}


class TestDecodeWithoutArena:
    """``resolve_indices_full`` with and without an arena, and the oracle.

    The slot engine decodes without a workspace; both paths must stay
    bitwise equal to each other and to ``decode_reference`` on every store
    and view layout the contiguous one-``take`` gather distinguishes.
    """

    @pytest.mark.parametrize("model", GAIN_MODELS, ids=_model_name)
    @pytest.mark.parametrize("view", ["contiguous", "permuted"])
    @pytest.mark.parametrize("store", ["dense", "dense+headroom", "tiled"])
    def test_full_decode_paths_agree(self, store, view, model):
        params = SINRParameters(gain_model=model)
        nodes = deployment_by_name("uniform", 30, np.random.default_rng(21))
        # A listener sitting on node 0: its column is NaN whenever node 0
        # transmits, and decodes nothing.
        nodes.append(Node(id=99, position=nodes[0].position))
        channel = _view_channel(params, nodes, store, view)
        rng = np.random.default_rng(8)
        ws = DecodeWorkspace()
        for slot in range(10):
            ntx = int(rng.integers(1, 6))
            tx = np.sort(rng.choice(len(nodes), size=ntx, replace=False)).astype(np.intp)
            if slot % 3 == 0 and 0 not in tx:
                tx = np.concatenate(([0], tx[:-1])).astype(np.intp)
            powers = rng.random(tx.size) + 0.2
            plain = channel.resolve_indices_full(tx, powers, slot=slot)
            arena = _copy(channel.resolve_indices_full(tx, powers, slot=slot, workspace=ws))
            assert_same(plain, arena)
            assert_matches_reference(plain, _reference_full(params, nodes, tx, powers, slot), nodes, tx)
            if 0 in tx:
                assert np.isnan(plain[1][len(nodes) - 1]) and not plain[2][len(nodes) - 1]


class TestStackedDecodeParity:
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

    def test_resolve_indices_many_sizes_the_stack(self):
        nodes = deployment_by_name("uniform", 8, np.random.default_rng(2))
        channel = CachedChannel(SINRParameters(), nodes)
        tx = np.array([0, 3], dtype=np.intp)
        with pytest.raises(ValueError, match="size the trial stack"):
            channel.resolve_indices_many(tx, np.ones(2))
        with pytest.raises(ValueError, match="3 trials but slots has 2"):
            channel.resolve_indices_many(tx, np.ones((3, 2)), slots=np.arange(2))
        best, sinr, ok = channel.resolve_indices_many(tx, np.ones(2), slots=np.arange(4))
        assert best.shape == sinr.shape == ok.shape == (4, 8)


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
            expected = link_affectance_block(cache, rows, cols, power, params)
            got = link_affectance_block(cache, rows, cols, power, params, workspace=ws)
            assert np.array_equal(got, expected)

    def test_affectance_block_with_fading_falls_back(self):
        params = SINRParameters(gain_model=LogNormalShadowing(sigma_db=3.0, seed=9))
        links = self._links(10, seed=5)
        cache = LinkArrayCache(links)
        power = LinearPower.for_noise(params)
        rows = np.arange(4, dtype=np.intp)
        cols = np.arange(4, 10, dtype=np.intp)
        expected = link_affectance_block(cache, rows, cols, power, params)
        got = link_affectance_block(cache, rows, cols, power, params, workspace=DecodeWorkspace())
        assert np.array_equal(got, expected)
