"""The slot engines pick each decoding listener's sender like the seed decode loop.

``Simulator`` and ``NetSimulator`` ask the channel for a winner only in the
columns that decode; every other column's ``best`` is left unread.  These
tests step a scripted program through both engines and compare every slot's
(listener, sender) pairs with ``decode_reference``, the per-listener loop,
on the dense and the tiled store (the latter with a row budget small enough
to evict), on a channel whose cache is the program's node order and on one
that holds the nodes permuted among extra ones, under no fading, static
shadowing and per-slot Rayleigh fading, with crashed nodes and a listener
colocated with a transmitter.  The whole-universe decode's own
``(ok, winner)`` is held to the same loop on both stores, for one
transmitter, two nodes, a colocated column and each gain model, with and
without noise.  The public index decodes still return a winner in every
column.

The tiled store's row cache is pinned here too: rows equal the dense
gather and misses follow ``FifoRowModel`` under repeats, oversize requests
and moves; a fill allocates no more than its rows and a fixed chunk; and
the allocating decode, which divides into its gathered block, never writes
a store's matrix or row cache.
"""

from __future__ import annotations

import tracemalloc

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
from repro.state.kernels import attenuation_from_distances, pairwise_distances
from repro.state.slabs import SLAB_BYTES, slab_bounds, slab_workers

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


#: Folded-decode cases: (nodes, transmitter positions, last node on the first).
FOLD_CASES = {
    "one transmitter": (6, [2], False),
    "two nodes": (2, [1], False),
    "colocated column": (7, [0, 3], True),
    "crowd": (12, [0, 2, 5, 7, 9], False),
}


class TestFoldedDecodeMatchesReference:
    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("gain", sorted(GAIN_MODELS))
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_decoded_winners_are_the_seed_loops(self, store, gain, noise, case):
        n, tx, colocated = FOLD_CASES[case]
        rng = np.random.default_rng(n * len(tx))
        xy = rng.uniform(0.0, 8.0, size=(n, 2))
        if colocated:
            xy[-1] = xy[0]
        nodes = [Node(100 + i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]
        params = SINRParameters(alpha=3.0, beta=1.0, noise=noise, gain_model=GAIN_MODELS[gain])
        channel = _channel(params, nodes, store=store, view="contiguous", rng=rng)
        tx = np.array(tx, dtype=np.intp)
        powers = rng.uniform(0.5, 4.0, size=tx.size)
        best, _, ok = channel.resolve_indices_full(tx, powers, slot=3, _decoded_only=True)
        # A transmitter's own column never decodes: the engines rely on it.
        assert not ok[tx].any()
        got = sorted(zip(ok.nonzero()[0].tolist(), tx[best].tolist()))
        want = _expected(nodes, tx, powers, np.zeros(n, dtype=bool), params, 3)
        assert got == want and got
        # The public form picks the same winners in the decoding columns.
        every, _, every_ok = channel.resolve_indices_full(tx, powers, slot=3)
        assert np.array_equal(every_ok, ok)
        assert np.array_equal(every[ok], best)


class TestPublicDecodeKeepsEveryWinner:
    @pytest.mark.parametrize("store", STORES)
    def test_every_column_has_its_argmax(self, store, rng):
        # A 6 x 5 grid at spacing 3: listeners next to a transmitter decode,
        # those far from all four do not.
        nodes = [Node(100 + i, Point(3.0 * (i % 6), 3.0 * (i // 6))) for i in range(30)]
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.01)
        channel = _channel(params, nodes, store=store, view="contiguous", rng=rng)
        tx = np.array([1, 4, 9, 16], dtype=np.intp)
        powers = np.array([1.0, 2.0, 3.0, 4.0])
        att = channel.cache.attenuation_block(params.alpha, tx, None)
        with np.errstate(divide="ignore"):
            want = (powers[:, None] / att).argmax(axis=0)
        best, _, ok = channel.resolve_indices_full(tx, powers)
        assert ok.any() and (~ok).any()
        assert np.unique(want[ok]).size > 1
        assert np.array_equal(best, want)
        rx = np.arange(30, dtype=np.intp)
        best, _, _ = channel.resolve_indices(tx, rx, powers)
        assert np.array_equal(best, want)
        # The engines' private form keeps the winners of the decoding
        # listeners alone, in order.
        best, _, only = channel.resolve_indices_full(tx, powers, _decoded_only=True)
        assert np.array_equal(only, ok)
        assert np.array_equal(best, want[ok])


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
                got = tiled.attenuation_rect(alpha, slots, None)
                assert np.array_equal(got, dense[slots])
                model.request(slots.tolist())
                assert registry.counter_value("tiled.row_cache_miss") == model.misses

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        budget_rows=st.integers(1, 6),
        requests=st.integers(1, 16),
    )
    def test_oversize_repeats_and_moves(self, seed, n, budget_rows, requests):
        # Requests up to twice the budget (the oversize ones are served
        # uncached and leave the ring alone), repeated slots, and moves that
        # bump the store's version and so empty the ring.
        rng = np.random.default_rng(seed)
        nodes = _deployment(rng, n)
        alpha = 3.0
        tiled = TiledNetworkState(nodes, budget_bytes=2 * budget_rows * 8 * n)
        dense = NetworkState(nodes)
        model = FifoRowModel(budget_rows)
        with telemetry() as registry:
            for _ in range(requests):
                if rng.random() < 0.2:
                    moved = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                    xy = rng.uniform(0.0, 60.0, size=(moved.size, 2))
                    tiled.move_nodes(moved, xy)
                    dense.move_nodes(moved, xy)
                    model.clear()
                k = int(rng.integers(1, 2 * budget_rows + 1))
                slots = rng.integers(0, n, size=k).astype(np.intp)
                if rng.random() < 0.5:
                    slots[rng.integers(0, k)] = slots[0]
                got = tiled.attenuation_rect(alpha, slots, None)
                assert np.array_equal(got, dense.attenuation_matrix(alpha)[slots])
                if k <= budget_rows:
                    model.request(slots.tolist())
                assert registry.counter_value("tiled.row_cache_miss") == model.misses
                cache = tiled._row_caches.get(alpha)
                if cache is not None:
                    held = cache.slot_at[cache.slot_at >= 0]
                    assert cache.used == held.size
                    assert np.array_equal(cache.row_of[held], np.flatnonzero(cache.slot_at >= 0))

    @pytest.mark.parametrize("oversize", [False, True])
    def test_fill_allocates_no_difference_array(self, oversize):
        # 256 missing rows at n=2048: a fill allocates the rows it returns
        # plus its fixed chunk scratch, never a (k, n, 2) difference array.
        n, k = 2048, 256
        rng = np.random.default_rng(8)
        nodes = _deployment(rng, n)
        ring_rows = k // 2 if oversize else k + 44
        tiled = TiledNetworkState(nodes, budget_bytes=2 * ring_rows * 8 * n)
        tiled.attenuation_rect(3.0, np.arange(4, dtype=np.intp), None)  # allocates the ring
        slots = np.arange(100, 100 + k, dtype=np.intp)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = tiled.attenuation_rect(3.0, slots, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        xy = tiled.xy
        want = attenuation_from_distances(pairwise_distances(xy[slots], xy), 3.0)
        assert np.array_equal(got, want)
        # One slab's float and bool planes per running slab, each with room
        # for NumPy's iteration buffers; a (k, n, 2) difference array alone
        # would be 8 MiB.
        running = min(slab_workers(), len(slab_bounds(k, 8 * n)))
        scratch = running * (SLAB_BYTES + SLAB_BYTES // 8 + 256 * 1024)
        assert peak <= k * n * 8 + scratch


def _view_channel(params, nodes, *, store: str, view: str, rng):
    """A channel over the whole store, or over a permuted (non-contiguous) view of it."""
    if store == "tiled":
        state = TiledNetworkState(nodes, budget_bytes=2 * 3 * 8 * len(nodes))
    else:
        state = NetworkState(nodes)
    if view == "contiguous":
        channel = CachedChannel(params, state=state)
    else:
        permuted = [nodes[i] for i in rng.permutation(len(nodes))]
        channel = CachedChannel(params, permuted, state=state)
    assert channel.cache._contiguous == (view == "contiguous")
    return channel


class TestDecodeLeavesStoreUnchanged:
    """The allocating decode divides into its gathered block, never into a store."""

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("gain", sorted(GAIN_MODELS))
    def test_decodes_do_not_write_the_store(self, store, view, gain, rng):
        nodes = _deployment(rng, 30)
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.01, gain_model=GAIN_MODELS[gain])
        channel = _view_channel(params, nodes, store=store, view=view, rng=rng)
        state = channel.cache.state
        tx = np.array([0, 4, 9], dtype=np.intp)
        powers = np.array([1.0, 2.0, 3.0])
        rx = np.arange(10, 30, dtype=np.intp)
        ids = channel.cache.ids.tolist()
        sender_ids = [ids[i] for i in tx.tolist()]
        listener_ids = ids[10:]

        def decode_all():
            channel.resolve_indices_full(tx, powers, slot=3)
            channel.resolve_indices(tx, rx, powers, slot=3)
            channel.decoded_senders(sender_ids, powers.tolist(), listener_ids, slot=3)

        decode_all()  # fills the row cache; the decodes below only read it
        if store == "dense":
            snapshot = {"att": state.attenuation_matrix(params.alpha).copy()}
        else:
            snapshot = {alpha: cache.rows.copy() for alpha, cache in state._row_caches.items()}
        decode_all()
        if store == "dense":
            assert np.array_equal(state.attenuation_matrix(params.alpha), snapshot["att"])
        else:
            assert snapshot.keys() == state._row_caches.keys()
            for alpha, rows in snapshot.items():
                # Bitwise, NaN-safe: the ring's unfilled rows are np.empty.
                assert state._row_caches[alpha].rows.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("view", VIEWS)
    def test_attenuation_blocks_are_fresh_copies(self, store, view, rng):
        # The precondition of the in-place divide: no allocating gather hands
        # the decode memory a store still owns.
        nodes = _deployment(rng, 30)
        channel = _view_channel(SINRParameters(alpha=3.0), nodes, store=store, view=view, rng=rng)
        state = channel.cache.state
        owned = (
            [state.attenuation_matrix(3.0)]
            if store == "dense"
            else [cache.rows for cache in state._row_caches.values()]
        )
        for tx in ([0, 4], [0, 4, 9, 12, 20]):  # the second is over the tiled budget
            rows = np.array(tx, dtype=np.intp)
            for cols in (None, np.arange(10, 30, dtype=np.intp)):
                block = channel.cache.attenuation_block(3.0, rows, cols)
                if store == "tiled":
                    owned = [cache.rows for cache in state._row_caches.values()]
                assert not any(np.shares_memory(block, array) for array in owned)


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

    def clear(self) -> None:
        """Empty the ring (the store's version moved); misses keep counting."""
        self.ring = [None] * len(self.ring)
        self.cursor = 0
