"""The slot engines pick each decoding listener's sender like the seed decode loop.

``Simulator`` and ``NetSimulator`` ask the channel for a winner only in the
columns that decode; every other column's ``best`` is left unread.  These
tests step a scripted program through both engines and compare every slot's
(listener, sender) pairs with ``decode_reference``, the per-listener loop,
on the dense and the tiled store (the latter with a row budget small enough
to evict), on a channel whose cache is the program's node order and on one
that holds the nodes permuted among extra ones, under no fading, static
shadowing and per-slot Rayleigh fading, with crashed nodes and a listener
colocated with a transmitter.  The public index decodes still return a
winner in every column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.gain import LogNormalShadowing, RayleighFading
from repro.geometry import Node, Point
from repro.netsim import CrashSchedule, CrashWindow, FaultPlan, FaultyTransport, NetSimulator
from repro.obs import telemetry
from repro.runtime import LockstepProgram, Simulator
from repro.sinr import CachedChannel, SINRParameters, Transmission
from repro.state import NetworkState, TiledNetworkState

from .oracles import decode_reference

GAIN_MODELS = {
    "none": None,
    "shadowing": LogNormalShadowing(sigma_db=6.0, seed=3),
    "rayleigh": RayleighFading(seed=5),
}


class ScriptedProgram(LockstepProgram):
    """Transmits a fixed (positions, powers) plan per slot and records receptions."""

    def __init__(self, nodes, plan):
        self.nodes = list(nodes)
        self.plan = plan
        self.down = np.zeros(len(self.nodes), dtype=bool)
        self.heard: dict[int, list[tuple[int, int]]] = {}

    def transmit(self, slot):
        tx, powers = self.plan[slot]
        up = ~self.down[tx]
        return tx[up], powers[up]

    def receive(self, slot, listeners, senders):
        self.heard[slot] = sorted(zip(listeners.tolist(), senders.tolist()))

    def on_crash(self, positions, slot):
        self.down[positions] = True

    def on_recover(self, positions, slot):
        self.down[positions] = False


def _deployment(rng: np.random.Generator, n: int) -> list[Node]:
    xy = rng.uniform(0.0, 60.0, size=(n, 2))
    # The last node sits on the first: when node 0 transmits, its colocated
    # listener hears an infinite signal and decodes nothing.
    xy[-1] = xy[0]
    return [Node(100 + i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


def _plan(rng: np.random.Generator, n: int, slots: int):
    plan = []
    for _ in range(slots):
        count = int(rng.integers(1, max(2, n // 3)))
        tx = np.sort(rng.choice(n, size=count, replace=False)).astype(np.intp)
        if rng.random() < 0.3:
            tx = np.union1d(tx, [0]).astype(np.intp)
        plan.append((tx, rng.uniform(0.5, 4.0, size=tx.size)))
    return plan


def _expected(nodes, tx, powers, down, params, slot):
    """(listener, sender) positions by the seed loop, for one slot."""
    listening = np.ones(len(nodes), dtype=bool)
    listening[down] = False
    listening[tx] = False
    rx = np.flatnonzero(listening)
    if not tx.size or not rx.size:
        return []
    xy = np.array([[node.x, node.y] for node in nodes])
    diff = xy[tx][:, None, :] - xy[rx][None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    ids = np.array([node.id for node in nodes], dtype=np.int64)
    model = params.effective_gain_model
    fade = None if model is None else model.fade(ids[tx], ids[rx], slot)
    transmissions = [Transmission(nodes[i], float(p)) for i, p in zip(tx, powers)]
    listeners = [nodes[j] for j in rx]
    got = decode_reference(transmissions, listeners, dist, powers, params, fade)
    position = {node.id: i for i, node in enumerate(nodes)}
    return sorted((position[rid], position[r.sender.id]) for rid, r in got.items())


def _channel(params, nodes, *, store: str, view: str, rng):
    universe = list(nodes)
    if view == "permuted":
        extra = [Node(10_000 + k, Point(300.0 + 7.0 * k, -50.0)) for k in range(3)]
        universe = [universe[i] for i in rng.permutation(len(universe))] + extra
    if store == "tiled":
        # Room for three attenuation rows per exponent: the FIFO evicts.
        state = TiledNetworkState(universe, budget_bytes=2 * 3 * 8 * len(universe))
    else:
        state = NetworkState(universe)
    return CachedChannel(params, state=state)


STORES = ("dense", "tiled")
VIEWS = ("contiguous", "permuted")


class TestSimulatorWinners:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 40),
        store=st.sampled_from(STORES),
        view=st.sampled_from(VIEWS),
        gain=st.sampled_from(sorted(GAIN_MODELS)),
    )
    def test_lockstep_matches_reference(self, seed, n, store, view, gain):
        rng = np.random.default_rng(seed)
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.01, gain_model=GAIN_MODELS[gain])
        nodes = _deployment(rng, n)
        plan = _plan(rng, n, 8)
        program = ScriptedProgram(nodes, plan)
        sim = Simulator(program, _channel(params, nodes, store=store, view=view, rng=rng))
        assert sim._full_universe == (view == "contiguous")
        no_down = np.zeros(n, dtype=bool)
        for slot, (tx, powers) in enumerate(plan):
            sim.step()
            assert program.heard[slot] == _expected(nodes, tx, powers, no_down, params, slot)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(6, 40),
        store=st.sampled_from(STORES),
        view=st.sampled_from(VIEWS),
        gain=st.sampled_from(sorted(GAIN_MODELS)),
    )
    def test_netsim_with_crashes_matches_reference(self, seed, n, store, view, gain):
        rng = np.random.default_rng(seed)
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.01, gain_model=GAIN_MODELS[gain])
        nodes = _deployment(rng, n)
        plan = _plan(rng, n, 10)
        victims = rng.choice(np.arange(1, n - 1), size=2, replace=False).tolist()
        windows = (
            CrashWindow(nodes[victims[0]].id, 2, None),
            CrashWindow(nodes[victims[1]].id, 4, 7),
        )
        program = ScriptedProgram(nodes, plan)
        transport = FaultyTransport(FaultPlan(seed=1, crashes=CrashSchedule(windows)))
        sim = NetSimulator(
            program, _channel(params, nodes, store=store, view=view, rng=rng), transport
        )
        for slot, (tx, powers) in enumerate(plan):
            sim.step()
            down = np.isin([node.id for node in nodes], sorted(transport.crashed_ids(slot)))
            up = ~down[tx]
            want = _expected(nodes, tx[up], powers[up], down, params, slot)
            assert program.heard[slot] == want


class TestPublicDecodeKeepsEveryWinner:
    @pytest.mark.parametrize("store", STORES)
    def test_every_column_has_its_argmax(self, store, rng):
        nodes = _deployment(rng, 30)
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.01)
        channel = _channel(params, nodes, store=store, view="contiguous", rng=rng)
        tx = np.array([1, 4, 9, 16], dtype=np.intp)
        powers = np.array([1.0, 2.0, 3.0, 4.0])
        att = channel.cache.attenuation_block(params.alpha, tx, None)
        with np.errstate(divide="ignore"):
            want = (powers[:, None] / att).argmax(axis=0)
        best, _, ok = channel.resolve_indices_full(tx, powers)
        assert np.array_equal(best, want)
        rx = np.arange(30, dtype=np.intp)
        best, _, _ = channel.resolve_indices(tx, rx, powers)
        assert np.array_equal(best, want)
        # The engines' private form agrees wherever a listener decodes.
        best, _, only = channel.resolve_indices_full(tx, powers, _decoded_only=True)
        assert np.array_equal(only, ok)
        assert np.array_equal(best[ok], want[ok])
        assert not best[~ok].any()


class TestRowCacheUnderTinyBudget:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        budget_rows=st.integers(1, 6),
        requests=st.integers(1, 12),
    )
    def test_rows_exact_and_misses_fifo(self, seed, n, budget_rows, requests):
        rng = np.random.default_rng(seed)
        nodes = _deployment(rng, n)
        alpha = 3.0
        tiled = TiledNetworkState(nodes, budget_bytes=2 * budget_rows * 8 * n)
        dense = NetworkState(nodes).attenuation_matrix(alpha)
        model = FifoRowModel(budget_rows)
        with telemetry() as registry:
            for _ in range(requests):
                k = int(rng.integers(1, budget_rows + 1))
                # Requests may repeat a slot; k never exceeds the budget.
                slots = rng.integers(0, n, size=k).astype(np.intp)
                got = tiled.attenuation_rows(alpha, slots)
                assert np.array_equal(got, dense[slots])
                model.request(slots.tolist())
                assert registry.counter_value("tiled.row_cache_miss") == model.misses


class FifoRowModel:
    """A FIFO ring of cached rows that never evicts a row the request needs."""

    def __init__(self, max_rows: int) -> None:
        self.ring: list[int | None] = [None] * max_rows
        self.cursor = 0
        self.misses = 0

    def request(self, slots: list[int]) -> None:
        needed = set(slots)
        for slot in dict.fromkeys(slots):
            if slot in self.ring:
                continue
            pos = self.cursor
            while self.ring[pos] is not None and self.ring[pos] in needed:
                pos = (pos + 1) % len(self.ring)
            self.ring[pos] = slot
            self.cursor = (pos + 1) % len(self.ring)
            self.misses += 1
