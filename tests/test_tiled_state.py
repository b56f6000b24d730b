"""Tests for the exact O(n) geometry store (``repro.state.tiled``) and the
size rule that picks it (``NetworkState.for_nodes``).

Three layers of claims are pinned here:

* **Kernel parity (RL005)** - the rectangle kernels are bit-for-bit equal to
  their reference oracles: ``distance_rect_from_xy`` vs
  ``pairwise_distances`` and ``attenuation_rect_from_xy`` vs
  ``attenuation_from_distances``.
* **Store parity** - everything a decode consumes from a
  ``TiledNetworkState`` (rectangles, cached rows, fades, cache blocks,
  channel resolutions) is bitwise equal to the dense store, through seeded
  add/remove/move churn that crosses capacity-growth boundaries.
* **Size rule** - ``NetworkState.for_nodes`` returns the dense store up to
  the ``DENSE_BUDGET_BYTES`` boundary and the tiled one past it, and forcing
  the boundary down moves every consumer onto the tiled store without
  changing one result (Init, Distr-Cap, the distributed schedule, E1 rows
  at any worker count).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DistrCapSelector,
    DistributedScheduler,
    InitialTreeBuilder,
    TreeRepairer,
)
from repro.dynamics import DeterministicPathLoss, LogNormalShadowing, RayleighFading
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
from repro.experiments.parallel import shutdown_fabrics
from repro.geometry import Node, Point
from repro.links import Link
from repro.obs import OBS, MetricsRegistry, telemetry
from repro.runtime import Simulator
from repro.sinr import CachedChannel, Channel, MeanPower, NodeArrayCache, SINRParameters
from repro.state import (
    DENSE_BUDGET_BYTES,
    DecodeWorkspace,
    NetworkState,
    TiledNetworkState,
)
from repro.state import network as state_network
from repro.state import slabs
from repro.state.kernels import (
    attenuation_from_distances,
    attenuation_rect_from_xy,
    distance_rect_from_xy,
    fill_attenuation_rows,
    pairwise_distances,
)

from .beacon import BeaconProgram

ALPHAS = (2.5, 3.0)
SHADOW = LogNormalShadowing(sigma_db=5.0, seed=42)


def _make_nodes(rng: np.random.Generator, count: int, *, start_id: int = 0) -> list[Node]:
    points = rng.uniform(0.0, 100.0, size=(count, 2))
    return [
        Node(id=start_id + i, position=Point(float(x), float(y)))
        for i, (x, y) in enumerate(points)
    ]


class TestTileKernelParity:
    def test_distance_rect_from_xy_matches_pairwise_distances(self, rng):
        a = rng.uniform(0.0, 50.0, size=(9, 2))
        b = rng.uniform(0.0, 50.0, size=(13, 2))
        expected = pairwise_distances(a, b)
        assert np.array_equal(distance_rect_from_xy(a, b), expected)
        workspace = DecodeWorkspace()
        got = distance_rect_from_xy(a, b, workspace, "t.dist")
        assert np.array_equal(got, expected)

    def test_attenuation_rect_from_xy_matches_attenuation_from_distances(self, rng):
        a = rng.uniform(0.0, 50.0, size=(8, 2))
        b = np.concatenate([rng.uniform(0.0, 50.0, size=(5, 2)), a[:2]])  # colocated pairs
        for alpha in ALPHAS:
            expected = attenuation_from_distances(pairwise_distances(a, b), alpha)
            assert np.array_equal(attenuation_rect_from_xy(a, b, alpha), expected)
            workspace = DecodeWorkspace()
            got = attenuation_rect_from_xy(a, b, alpha, workspace, "t.att")
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7, 64])
    def test_chunked_fill_matches_attenuation_from_distances(self, rng, chunk_rows, monkeypatch):
        # Chunk boundaries inside and at the end of the rectangle, colocated
        # pairs and a row range of a larger array as the output.
        a = rng.uniform(0.0, 50.0, size=(17, 2))
        b = np.concatenate([rng.uniform(0.0, 50.0, size=(10, 2)), a[:3]])
        monkeypatch.setattr(slabs, "SLAB_BYTES", chunk_rows * 8 * b.shape[0])
        for alpha in ALPHAS:
            expected = attenuation_from_distances(pairwise_distances(a, b), alpha)
            host = np.full((a.shape[0] + 4, b.shape[0]), -1.0)
            got = fill_attenuation_rows(host[2:-2], a, b, alpha)
            assert np.array_equal(got, expected)
            assert np.array_equal(host[2:-2], expected)
            assert (host[:2] == -1.0).all() and (host[-2:] == -1.0).all()
            assert np.array_equal(attenuation_rect_from_xy(a, b, alpha), expected)

class TestTiledNetworkStateParity:
    @pytest.mark.parametrize("built", [True, False], ids=["built", "never-built"])
    @pytest.mark.parametrize("staged", [False, True], ids=["fresh", "workspace"])
    def test_rects_and_rows_match_dense_matrices(self, rng, built, staged):
        """Both stores answer every rectangle with the same bits: after
        removals (capacity above the live count, slots out of order), on a
        colocated pair, with and without a workspace, and on a dense store
        that never built its matrices (whose distance rectangles then build
        none)."""
        nodes = _make_nodes(rng, 120)
        nodes[7] = Node(id=nodes[7].id, position=nodes[3].position)  # colocated with 3
        dense = NetworkState(nodes)
        tiled = TiledNetworkState(nodes)
        if built:
            dense.distance_matrix()
            for alpha in ALPHAS:
                dense.attenuation_matrix(alpha)
            dense.fade_matrix(SHADOW)
        gone = [node.id for node in nodes[10:60:3]]
        dense.remove_nodes(gone)
        tiled.remove_nodes(gone)
        live = tiled.live_slots()
        assert np.array_equal(live, dense.live_slots()) and live.size < tiled.capacity
        some = np.concatenate(([3, 7], live[rng.permutation(live.size)[:25]]))
        cols = live[rng.permutation(live.size)]
        workspaces = {id(dense): DecodeWorkspace(), id(tiled): DecodeWorkspace()}

        def same(method, *args):
            """``method`` on both stores, bitwise equal; a copy of the answer."""
            answers = []
            for store in (dense, tiled):
                workspace = workspaces[id(store)] if staged else None
                got = getattr(store, method)(*args, workspace=workspace)
                answers.append(None if got is None else np.array(got))
            first, second = answers
            if first is None:
                assert second is None
            else:
                assert first.shape == second.shape and first.tobytes() == second.tobytes()
            return first

        dist = same("distance_rect", some, cols)
        assert built == dense.has_distances
        assert dist[0, np.flatnonzero(cols == 7)[0]] == 0.0
        assert np.array_equal(dist, pairwise_distances(dense.xy[some], dense.xy[cols]))
        for alpha in ALPHAS:
            att = same("attenuation_rect", alpha, some, cols)
            assert att[0, np.flatnonzero(cols == 7)[0]] == 0.0
            whole = same("attenuation_rect", alpha, some, None)
            assert whole.shape == (some.size, tiled.capacity)
            assert np.array_equal(whole[:, cols], att)
            dense_att = dense.attenuation_matrix(alpha)
            assert np.array_equal(att, dense_att[np.ix_(some, cols)])
            sources = [store.row_source(alpha, some) for store in (dense, tiled)]
            dense_rows, tiled_rows = (rows if at is None else rows[at] for rows, at in sources)
            assert dense_rows.tobytes() == tiled_rows.tobytes() == whole.tobytes()
        fade = same("fade_rect", SHADOW, some, cols)
        assert fade.shape == (some.size, cols.size)
        # Whole fade rows agree on the live columns; a free slot's column is
        # never read (the dense store keeps its stale hash, the tiled one
        # hashes id -1).
        for store in (dense, tiled):
            whole_fade = store.fade_rect(SHADOW, some, None)
            assert whole_fade.shape == (some.size, tiled.capacity)
            assert whole_fade[:, cols].tobytes() == fade.tobytes()
        assert same("fade_rect", DeterministicPathLoss(), some, cols) is None

    def test_churn_matches_fresh_dense_rebuild(self, rng):
        """Seeded add/remove/move churn, asserted bitwise after every step."""
        tiled = TiledNetworkState(_make_nodes(rng, 12), capacity=16)
        next_id = 12
        for step in range(30):
            choice = rng.integers(0, 3)
            if choice == 0 or len(tiled) < 4:
                batch = int(rng.integers(1, 8))
                tiled.add_nodes(_make_nodes(rng, batch, start_id=next_id))
                next_id += batch
            elif choice == 1:
                ids = [int(node.id) for node in tiled]
                victims = rng.choice(ids, size=min(3, len(ids)), replace=False)
                tiled.remove_nodes(int(v) for v in victims)
            else:
                live = tiled.live_slots()
                moved = live[rng.permutation(live.size)[:3]]
                tiled.move_nodes(moved, rng.uniform(0.0, 100.0, size=(moved.size, 2)))
            live = tiled.live_slots()
            fresh = NetworkState([tiled.node_at(int(s)) for s in live])
            assert np.array_equal(tiled.distance_rect(live, live), fresh.distance_matrix())
            for alpha in ALPHAS:
                fresh_att = fresh.attenuation_matrix(alpha)
                assert np.array_equal(
                    tiled.attenuation_rect(alpha, live, live), fresh_att
                )
                rows = tiled.attenuation_rect(alpha, live, None)
                assert np.array_equal(rows[:, live], fresh_att)

    def test_free_list_reuse_and_capacity_growth(self, rng):
        tiled = TiledNetworkState(_make_nodes(rng, 8), capacity=8)
        assert tiled.capacity == 8
        tiled.add_nodes(_make_nodes(rng, 12, start_id=100))  # forces growth
        grown = tiled.capacity
        assert grown >= 20
        tiled.remove_nodes([100, 101, 102])
        tiled.add_nodes(_make_nodes(rng, 3, start_id=200))  # reuses freed slots
        assert tiled.capacity == grown
        assert len(tiled) == 20

    def test_attenuation_rows_cache_serves_and_invalidates(self, rng):
        nodes = _make_nodes(rng, 30)
        tiled = TiledNetworkState(nodes)
        dense = NetworkState(nodes)
        live = tiled.live_slots()
        first = tiled.attenuation_rect(2.5, live[:10], None)
        again = tiled.attenuation_rect(2.5, live[:10], None)
        assert np.array_equal(first, again)
        # workspace-staged gather is bitwise identical to the cached rows
        workspace = DecodeWorkspace()
        staged = tiled.attenuation_rect(2.5, live[:10], None, workspace=workspace)
        assert np.array_equal(staged, first)
        # mutation invalidates wholesale; served rows track the new geometry
        tiled.move_nodes(live[:2], rng.uniform(0.0, 100.0, size=(2, 2)))
        dense.move_nodes(live[:2], tiled.xy[live[:2]])
        assert np.array_equal(
            tiled.attenuation_rect(2.5, live[:10], None), dense.attenuation_matrix(2.5)[live[:10], :]
        )

    def test_attenuation_rows_tiny_budget_still_exact(self, rng):
        """A budget holding almost no rows evicts FIFO but never serves wrong."""
        nodes = _make_nodes(rng, 24)
        tiled = TiledNetworkState(nodes, budget_bytes=24 * 8 * 6)  # ~3 cached rows
        dense = NetworkState(nodes)
        expected = dense.attenuation_matrix(3.0)
        live = tiled.live_slots()
        for _ in range(4):
            request = live[rng.permutation(live.size)[: int(rng.integers(1, 9))]]
            assert np.array_equal(
                tiled.attenuation_rect(3.0, request, None), expected[request, :]
            )

    def test_fade_rect_matches_dense_fade_matrix(self, rng):
        nodes = _make_nodes(rng, 20)
        dense = NetworkState(nodes)
        tiled = TiledNetworkState(nodes)
        live = tiled.live_slots()
        fade = dense.fade_matrix(SHADOW)
        assert np.array_equal(
            tiled.fade_rect(SHADOW, live[:6], live), fade[np.ix_(live[:6], live)]
        )
        assert np.array_equal(tiled.fade_rect(SHADOW, live[:6], None), fade[live[:6], :])
        with pytest.raises(ValueError, match="slot-dependent"):
            tiled.fade_rect(RayleighFading(seed=1), live[:2], live)

    def test_matrix_accessors_refuse_to_materialize(self, rng):
        tiled = TiledNetworkState(_make_nodes(rng, 5))
        with pytest.raises(RuntimeError, match="distance"):
            tiled.distance_matrix()
        with pytest.raises(RuntimeError, match="attenuation"):
            tiled.attenuation_matrix(2.5)
        with pytest.raises(RuntimeError, match="fade"):
            tiled.fade_matrix(SHADOW)

    def test_constructor_validation(self, rng):
        nodes = _make_nodes(rng, 4)
        with pytest.raises(ValueError, match="budget_bytes"):
            TiledNetworkState(nodes, budget_bytes=0)

    def test_store_flags(self, rng):
        nodes = _make_nodes(rng, 3)
        assert NetworkState(nodes).materializes_matrices
        assert not TiledNetworkState(nodes).materializes_matrices


class TestNodeArrayCacheTiledDispatch:
    @pytest.fixture()
    def caches(self, rng):
        nodes = _make_nodes(rng, 80)
        return NodeArrayCache(nodes), NodeArrayCache(state=TiledNetworkState(nodes))

    def test_blocks_match_dense_cache(self, caches, rng):
        dense, tiled = caches
        rows = rng.permutation(80)[:12].astype(np.intp)
        cols = rng.permutation(80)[:30].astype(np.intp)
        assert np.array_equal(
            tiled.state.distance_rect(tiled.slots[rows], tiled.slots[cols]),
            dense.state.distance_rect(dense.slots[rows], dense.slots[cols]),
        )
        for alpha in ALPHAS:
            assert np.array_equal(
                tiled.attenuation_block(alpha, rows, cols),
                dense.attenuation_block(alpha, rows, cols),
            )
            # cols=None: the decode hot path's whole-row gather (row cache)
            assert np.array_equal(
                tiled.attenuation_block(alpha, rows), dense.attenuation_block(alpha, rows)
            )
        assert np.array_equal(
            tiled.fade_block(SHADOW, rows, cols), dense.fade_block(SHADOW, rows, cols)
        )
        assert np.array_equal(tiled.fade_block(SHADOW, rows), dense.fade_block(SHADOW, rows))

    def test_blocks_match_with_workspace(self, caches, rng):
        dense, tiled = caches
        workspace = DecodeWorkspace()
        rows = np.arange(7, dtype=np.intp)
        got = tiled.attenuation_block(2.5, rows, workspace=workspace)
        assert np.array_equal(np.array(got), dense.attenuation_block(2.5, rows))

    def test_cached_channel_resolution_parity(self, rng):
        nodes = _make_nodes(rng, 90)
        params = SINRParameters()
        dense_channel = CachedChannel(params, nodes)
        tiled_channel = CachedChannel(params, state=TiledNetworkState(nodes))
        tx = np.arange(0, 30, dtype=np.intp)
        rx = np.arange(30, 70, dtype=np.intp)
        powers = np.full(30, 2.5)
        for slot in (0, 1):
            got = tiled_channel.resolve_indices(tx, rx, powers, slot=slot)
            want = dense_channel.resolve_indices(tx, rx, powers, slot=slot)
            for a, b in zip(got, want):
                assert np.array_equal(np.asarray(a), np.asarray(b))


class TestTiledObservability:
    def test_counters_and_gauges_behind_telemetry(self, rng):
        nodes = _make_nodes(rng, 30)
        with telemetry() as registry:
            tiled = TiledNetworkState(nodes)
            tiled.attenuation_rect(2.5, tiled.live_slots()[:4], None)
            assert registry.counter_value("tiled.row_cache_miss") == 4
            # A second gather of cached rows records no new misses.
            tiled.attenuation_rect(2.5, tiled.live_slots()[:4], None)
            assert registry.counter_value("tiled.row_cache_miss") == 4
            gauges = {name: value for name, _, value in registry.gauges()}
            assert gauges["tiled.resident_bytes"] == tiled.resident_bytes() > 0

    def test_silent_when_telemetry_off(self, rng):
        assert not OBS.enabled
        registry = MetricsRegistry()
        previous = OBS.registry
        OBS.registry = registry
        try:
            tiled = TiledNetworkState(_make_nodes(rng, 10))
            tiled.attenuation_rect(2.5, tiled.live_slots()[:2], None)
        finally:
            OBS.registry = previous
        assert registry.counter_value("tiled.row_cache_miss") == 0


@pytest.fixture()
def tiled_everywhere(monkeypatch):
    """Force the size rule onto the tiled store for every non-empty universe.

    Trial-fabric workers fork from the parent, so pools are shut down on
    both sides of the test: workers started here see the patched boundary,
    and none of them outlives it.
    """
    shutdown_fabrics()
    monkeypatch.setattr(state_network, "DENSE_BUDGET_BYTES", 0)
    yield
    shutdown_fabrics()


class TestStoreSizeRule:
    def test_dense_at_the_boundary_tiled_one_node_past_it(self):
        boundary = int((DENSE_BUDGET_BYTES // 16) ** 0.5)
        assert 16 * boundary**2 <= DENSE_BUDGET_BYTES < 16 * (boundary + 1) ** 2
        nodes = [Node(i, Point(float(i), 0.0)) for i in range(boundary + 1)]
        at = NetworkState.for_nodes(nodes[:boundary])
        past = NetworkState.for_nodes(nodes)
        assert type(at) is NetworkState
        assert type(past) is TiledNetworkState
        assert len(at) == boundary and len(past) == boundary + 1
        # The lazy dense store allocated no matrix just by being chosen.
        assert not at.has_distances

    def test_links_go_through_the_same_rule(self, rng, tiled_everywhere):
        nodes = _make_nodes(rng, 6)
        links = [Link(nodes[0], nodes[1]), Link(nodes[1], nodes[2]), Link(nodes[3], nodes[4])]
        state = NetworkState.for_links(links)
        assert isinstance(state, TiledNetworkState)
        assert [node.id for node in state] == [0, 1, 2, 3, 4]

    def test_consumers_pick_up_the_rule(self, rng, tiled_everywhere):
        nodes = _make_nodes(rng, 8)
        assert isinstance(NodeArrayCache(nodes).state, TiledNetworkState)
        assert isinstance(CachedChannel(SINRParameters(), nodes).cache.state, TiledNetworkState)

        silent = BeaconProgram(nodes, 1.0, senders=[])
        simulator = Simulator(silent, Channel(SINRParameters()))
        assert isinstance(simulator.channel.cache.state, TiledNetworkState)


def _protocol_fingerprint(nodes, seed):
    """Init, Distr-Cap over its tree links and the distributed schedule."""
    params = SINRParameters()
    init = InitialTreeBuilder(params).build(nodes, np.random.default_rng(seed))
    links = list(init.tree.aggregation_schedule.links())
    selection = DistrCapSelector(params).select(
        links, np.random.default_rng(seed + 1), link_rounds=init.link_rounds
    )
    power = MeanPower.for_max_length(params, max(link.length for link in links))
    schedule = DistributedScheduler(params).schedule(
        links, power, np.random.default_rng(seed + 2)
    )
    return (
        init.tree.parent,
        init.tree.slot_stamps(),
        init.slots_used,
        sorted(link.endpoint_ids for link in selection.selected),
        selection.slots_used,
        sorted(
            (link.endpoint_ids, slot)
            for slot in schedule.schedule.used_slots()
            for link in schedule.schedule.links_in_slot(slot)
        ),
        schedule.frames_elapsed,
    )


class TestTiledThroughTheStack:
    @pytest.fixture(scope="class")
    def dense_e1_rows(self):
        config = ExperimentConfig(sizes=(12,), delta_targets=(1.0e2,), seeds=(1,))
        return ALL_EXPERIMENTS["E1"](config).rows

    @pytest.mark.parametrize("seed", [3, 4])
    def test_protocols_identical_on_both_stores(self, seed, monkeypatch):
        nodes = _make_nodes(np.random.default_rng(seed), 40)
        dense = _protocol_fingerprint(nodes, seed)
        monkeypatch.setattr(state_network, "DENSE_BUDGET_BYTES", 0)
        assert isinstance(NetworkState.for_nodes(nodes), TiledNetworkState)
        assert _protocol_fingerprint(nodes, seed) == dense

    def test_experiment_rows_identical_dense_vs_tiled(self, dense_e1_rows, tiled_everywhere):
        config = ExperimentConfig(sizes=(12,), delta_targets=(1.0e2,), seeds=(1,))
        assert ALL_EXPERIMENTS["E1"](config).rows == dense_e1_rows

    def test_worker_fanout_identical_under_tiled(self, dense_e1_rows, tiled_everywhere):
        config = ExperimentConfig(sizes=(12,), delta_targets=(1.0e2,), seeds=(1,))
        fanned = ALL_EXPERIMENTS["E1"](config.with_overrides(workers=2)).rows
        assert fanned == dense_e1_rows

    def test_repair_splices_tiled_state(self, rng):
        params = SINRParameters()
        nodes = _make_nodes(rng, 24)
        outcome = InitialTreeBuilder(params).build(nodes, rng)
        state = TiledNetworkState(nodes)
        failed = [nodes[3].id, nodes[7].id]
        arrivals = _make_nodes(rng, 2, start_id=500)
        result = TreeRepairer(params).integrate(
            outcome.tree,
            outcome.power,
            failed_ids=failed,
            arrivals=arrivals,
            rng=rng,
            state=state,
        )
        assert result.tree.is_strongly_connected()
        assert all(node_id not in state for node_id in failed)
        assert all(node.id in state for node in arrivals)
        # The splice stayed O(k) bookkeeping, and the rects still match a
        # fresh dense rebuild of the surviving membership.
        assert state.cells_patched == 0
        live = state.live_slots()
        fresh = NetworkState([state.node_at(int(s)) for s in live])
        assert np.array_equal(state.distance_rect(live, live), fresh.distance_matrix())
