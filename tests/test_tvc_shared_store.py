"""TreeViaCapacity's shared geometry store.

``TreeViaCapacity.build`` builds one :class:`~repro.state.NetworkState` per
deployment and runs each iteration's ``Init`` on a store gathered from the
previous iteration's with :meth:`NetworkState.subset`.  Nothing may change
because of it:

* a subset store (chained any number of times) serves the same matrices
  and decode rectangles as a fresh store over the same nodes;
* the store's ``max_distance`` equals ``geometry.diameter`` bit for bit;
* ``Init`` on a given store equals ``Init`` building its own, in every
  result field, trace included, and a whole TreeViaCapacity run equals one
  whose every ``Init`` and ``Distr-Cap`` builds its own store;
* ``spawn_agent_rngs``, which builds every node's generator from the
  seed's uint32 words, gives the streams ``default_rng(int(seed))`` gives.

The store checks run on the dense store and with every store forced onto
the tiled path (``DENSE_BUDGET_BYTES = 0``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistrCapSelector, InitialTreeBuilder, InitialTreeResult, TreeViaCapacity
from repro.dynamics import LogNormalShadowing
from repro.exceptions import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
from repro.geometry import Node, Point, diameter, uniform_random
from repro.runtime import spawn_agent_rngs
from repro.sinr import NodeArrayCache, SINRParameters
from repro.state import NetworkState, TiledNetworkState, network

from .test_init_engine import trace_contents

PARAMS = SINRParameters()
SHADOWING = LogNormalShadowing(sigma_db=6.0, seed=11)
#: Dense budget of the default build, and zero: every store tiled.
BUDGETS = pytest.mark.parametrize(
    "budget", [network.DENSE_BUDGET_BYTES, 0], ids=["dense", "tiled"]
)


@st.composite
def nested_subsets(draw):
    """A deployment and a chain of nested node subsets, each reordered."""
    n = draw(st.integers(min_value=1, max_value=48))
    nodes = uniform_random(n, np.random.default_rng(draw(st.integers(0, 2**16))))
    chain = [nodes]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        current = chain[-1]
        keep = draw(st.lists(st.booleans(), min_size=len(current), max_size=len(current)))
        kept = [node for node, k in zip(current, keep) if k] or current[:1]
        if draw(st.booleans()):
            kept = kept[::-1]
        chain.append(kept)
    return chain


def assert_same_store(got: NetworkState, fresh: NetworkState) -> None:
    """Same nodes in the same order, and bitwise-equal geometry."""
    assert type(got) is type(fresh)
    assert list(got) == list(fresh)
    assert np.array_equal(got.xy, fresh.xy) and np.array_equal(got.ids, fresh.ids)
    rows = np.arange(len(fresh), dtype=np.intp)
    got_view, fresh_view = NodeArrayCache(state=got), NodeArrayCache(state=fresh)
    assert np.array_equal(got_view.distance_block(rows), fresh_view.distance_block(rows))
    assert np.array_equal(
        got_view.attenuation_block(PARAMS.alpha, rows),
        fresh_view.attenuation_block(PARAMS.alpha, rows),
    )
    assert np.array_equal(got_view.fade_block(SHADOWING, rows), fresh_view.fade_block(SHADOWING, rows))
    if fresh.materializes_matrices:
        assert np.array_equal(got.distance_matrix(), fresh.distance_matrix())
        assert np.array_equal(
            got.attenuation_matrix(PARAMS.alpha), fresh.attenuation_matrix(PARAMS.alpha)
        )
        assert np.array_equal(got.fade_matrix(SHADOWING), fresh.fade_matrix(SHADOWING))


#: What an ``InitialTreeResult`` reports, its lazily built views included.
RESULT_VALUES = (
    "tree",
    "slots_used",
    "rounds_used",
    "sweeps_used",
    "delta",
    "power",
    "link_rounds",
    "trace",
    "stored_degrees",
)


def assert_same_init(got: InitialTreeResult, expected: InitialTreeResult) -> None:
    """Every ``InitialTreeResult`` value equal, trace records included."""
    for name in RESULT_VALUES:
        left, right = getattr(got, name), getattr(expected, name)
        if name == "tree":
            assert (left.root_id, left.parent, left.slot_stamps()) == (
                right.root_id,
                right.parent,
                right.slot_stamps(),
            )
            assert left.nodes == right.nodes
        elif name == "power":
            assert left.as_dict() == right.as_dict()
            assert left.fallback.level == right.fallback.level
        elif name == "trace":
            assert trace_contents(left) == trace_contents(right)
            assert left.records == right.records
        else:
            assert left == right, name


class TestSubsetStore:
    @BUDGETS
    @settings(max_examples=30, deadline=None)
    @given(chain=nested_subsets(), materialize=st.booleans())
    def test_subset_equals_a_fresh_store(self, budget, chain, materialize):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "DENSE_BUDGET_BYTES", budget)
            state = NetworkState.for_nodes(chain[0])
            if materialize and state.materializes_matrices:
                state.attenuation_matrix(PARAMS.alpha)
                state.fade_matrix(SHADOWING)
            for nodes in chain[1:]:
                state = state.subset(nodes)
                assert_same_store(state, NetworkState.for_nodes(nodes))

    @BUDGETS
    @settings(max_examples=40, deadline=None)
    @given(chain=nested_subsets())
    def test_max_distance_is_the_diameter(self, budget, chain):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "DENSE_BUDGET_BYTES", budget)
            state = NetworkState.for_nodes(chain[0])
            for nodes in chain:
                state = state if nodes is chain[0] else state.subset(nodes)
                # Bitwise: the same hypot values, and a max has no order.
                assert state.max_distance() == diameter(nodes)

    def test_max_distance_skips_free_slots(self):
        nodes = uniform_random(12, np.random.default_rng(3))
        state = NetworkState(nodes, capacity=20)
        state.remove_nodes([nodes[0].id, nodes[5].id])
        assert state.max_distance() == diameter([n for i, n in enumerate(nodes) if i not in (0, 5)])
        assert NetworkState([]).max_distance() == 0.0
        assert TiledNetworkState(nodes[:1]).max_distance() == 0.0

    def test_subset_rejects_foreign_and_moved_nodes(self):
        nodes = uniform_random(8, np.random.default_rng(4))
        state = NetworkState.for_nodes(nodes)
        with pytest.raises(ValueError, match="not live"):
            state.subset(nodes[:3] + [Node(500, Point(1.0, 1.0))])
        moved = Node(nodes[2].id, Point(nodes[2].x + 1.0, nodes[2].y))
        with pytest.raises(ValueError, match="sit where"):
            state.subset([nodes[0], moved])
        with pytest.raises(ValueError, match="duplicate"):
            state.subset([nodes[0], nodes[0]])


class TestInitOnAGivenStore:
    @BUDGETS
    @settings(max_examples=20, deadline=None)
    @given(chain=nested_subsets(), seed=st.integers(0, 2**16))
    def test_matches_a_plain_build(self, budget, chain, seed):
        builder = InitialTreeBuilder(PARAMS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "DENSE_BUDGET_BYTES", budget)
            state = NetworkState.for_nodes(chain[0])
            for nodes in chain[1:]:
                state = state.subset(nodes)
                if len(nodes) < 2:
                    continue
                got = builder.build(nodes, np.random.default_rng(seed), state=state)
                expected = builder.build(nodes, np.random.default_rng(seed))
                assert_same_init(got, expected)

    def test_store_must_hold_exactly_the_nodes(self):
        nodes = uniform_random(10, np.random.default_rng(5))
        builder = InitialTreeBuilder(PARAMS)
        for init_nodes, store_nodes in (
            (nodes[:-1], nodes),  # a node too many
            (nodes, nodes[:-1]),  # a node missing
            (nodes, nodes[::-1]),  # another order
            (nodes, nodes[:-1] + [Node(nodes[-1].id, Point(nodes[-1].x + 1.0, nodes[-1].y))]),
        ):
            with pytest.raises(ConfigurationError, match="exactly the Init nodes"):
                builder.build(init_nodes, np.random.default_rng(1), state=NetworkState(store_nodes))


@BUDGETS
@pytest.mark.parametrize("mode", ["arbitrary", "mean"])
def test_tvc_equals_a_run_with_a_fresh_store_per_init(budget, mode, monkeypatch):
    monkeypatch.setattr(network, "DENSE_BUDGET_BYTES", budget)
    nodes = uniform_random(60, np.random.default_rng(3))
    shared = TreeViaCapacity(PARAMS, power_mode=mode).build(nodes, np.random.default_rng(4))
    plain_build = InitialTreeBuilder.build
    plain_select = DistrCapSelector.select

    def build_own_store(self, nodes, rng, *, state=None, _checked=False):
        return plain_build(self, nodes, rng)

    def select_own_store(self, candidates, rng, *, link_rounds=None, state=None):
        return plain_select(self, candidates, rng, link_rounds=link_rounds)

    monkeypatch.setattr(InitialTreeBuilder, "build", build_own_store)
    monkeypatch.setattr(DistrCapSelector, "select", select_own_store)
    fresh = TreeViaCapacity(PARAMS, power_mode=mode).build(nodes, np.random.default_rng(4))
    assert (shared.tree.root_id, shared.tree.parent, shared.tree.slot_stamps()) == (
        fresh.tree.root_id,
        fresh.tree.parent,
        fresh.tree.slot_stamps(),
    )
    assert shared.power.as_dict() == fresh.power.as_dict()
    assert shared.iterations == fresh.iterations
    assert (shared.construction_slots, shared.delta) == (fresh.construction_slots, fresh.delta)
    assert (shared.aggregation_feasible, shared.dissemination_feasible) == (
        fresh.aggregation_feasible,
        fresh.dissemination_feasible,
    )


class _FixedSeeds:
    """A parent generator stand-in whose 63-bit draws are given."""

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds, dtype=np.int64)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**63 - 1, np.int64)
        return self.seeds[:size]


class TestSpawnedStreams:
    EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 - 2]

    def test_word_edges(self):
        children = spawn_agent_rngs(_FixedSeeds(self.EDGES), len(self.EDGES))
        for seed, child in zip(self.EDGES, children):
            expected = np.random.default_rng(int(seed))
            assert child.bit_generator.state == expected.bit_generator.state
            assert np.array_equal(child.random(8), expected.random(8))

    @settings(max_examples=50, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**63 - 2), min_size=0, max_size=12))
    def test_any_seeds(self, seeds):
        children = spawn_agent_rngs(_FixedSeeds(seeds), len(seeds))
        assert len(children) == len(seeds)
        for seed, child in zip(seeds, children):
            assert child.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_drawn_seeds(self):
        parent, twin = np.random.default_rng(77), np.random.default_rng(77)
        children = spawn_agent_rngs(parent, 64)
        seeds = twin.integers(0, 2**63 - 1, size=64, dtype=np.int64)
        for seed, child in zip(seeds, children):
            assert np.array_equal(child.random(4), np.random.default_rng(int(seed)).random(4))


@pytest.mark.parametrize("name", ["E5", "E6"])
def test_quick_rows_identical_across_workers(name):
    config = ExperimentConfig.quick()
    serial = ALL_EXPERIMENTS[name](config)
    parallel = ALL_EXPERIMENTS[name](replace(config, workers=2))
    assert parallel.rows == serial.rows
