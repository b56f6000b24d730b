"""Parity of the array ``Init`` engine with the per-agent protocol.

``InitialTreeBuilder.build`` runs ``Init`` as one NumPy step per slot; the
oracle in ``tests/oracles/init.py`` runs one ``InitAgent`` per node through
``Simulator``.  Both draw every node's coins from the same private stream,
so they must agree on everything a result carries - tree, slot and round
counts, link rounds, powers, stored degrees - and on every trace column,
labels included.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_CONSTANTS, AlgorithmConstants
from repro.core import InitialTreeBuilder, init_tree
from repro.dynamics import RayleighFading
from repro.exceptions import ConfigurationError, ProtocolError
from repro.geometry import Node, Point, grid, linear_chain, uniform_random
from repro.netsim import NetInitBuilder
from repro.sinr import SINRParameters
from repro.state import NetworkState, TiledNetworkState, network

from .oracles import build_init_reference

DEFAULT = SINRParameters()
FADING = SINRParameters(gain_model=RayleighFading(seed=7))
NOISELESS = SINRParameters(noise=0.0)
#: Few slot-pairs per round: several nodes are still active after one sweep.
FEW_PAIRS = AlgorithmConstants(slot_pairs_per_round_factor=0.5, min_slot_pairs_per_round=2)


def deploy(kind: str, n: int, seed: int) -> list[Node]:
    if kind == "uniform":
        return uniform_random(n, np.random.default_rng(seed))
    if kind == "grid":
        return grid(n, spacing=1.5)
    return linear_chain(n, spacing=1.0 + seed % 3)


def trace_columns(trace) -> tuple:
    """Every column of a ``ColumnarTrace``, labels included."""
    return (
        list(trace._slots),
        list(trace._labels),
        list(trace._tx_flat),
        list(trace._tx_offsets),
        list(trace._rx_listeners),
        list(trace._rx_senders),
        list(trace._rx_offsets),
    )


def assert_same_run(engine, oracle) -> None:
    assert engine.tree.root_id == oracle.tree.root_id
    assert engine.tree.parent == oracle.tree.parent
    assert engine.slots_used == oracle.slots_used
    assert engine.rounds_used == oracle.rounds_used
    assert engine.sweeps_used == oracle.sweeps_used
    assert engine.delta == oracle.delta
    assert engine.link_rounds == oracle.link_rounds
    assert engine.power.as_dict() == oracle.power.as_dict()
    assert engine.power.fallback.level == oracle.power.fallback.level
    assert engine.stored_degrees == oracle.stored_degrees
    assert trace_columns(engine.trace) == trace_columns(oracle.trace)


def run_both(params, nodes, seed, constants=DEFAULT_CONSTANTS):
    builder = InitialTreeBuilder(params, constants)
    engine = builder.build(nodes, np.random.default_rng(seed))
    oracle = build_init_reference(builder, nodes, np.random.default_rng(seed))
    return engine, oracle


class TestParity:
    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "grid", "chain"]),
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
        params=st.sampled_from([DEFAULT, FADING, NOISELESS]),
    )
    def test_matches_per_agent_protocol(self, kind, n, seed, params):
        engine, oracle = run_both(params, deploy(kind, n, seed), seed)
        assert_same_run(engine, oracle)

    @pytest.mark.parametrize("params", [DEFAULT, FADING, NOISELESS], ids=["default", "fading", "noiseless"])
    def test_multi_sweep_instance(self, params):
        nodes = uniform_random(40, np.random.default_rng(3))
        engine, oracle = run_both(params, nodes, 11, FEW_PAIRS)
        assert engine.sweeps_used > 1
        assert_same_run(engine, oracle)

    def test_stream_refill(self):
        # The root flips a broadcast coin in every broadcast slot, so a run
        # longer than one block reads past its first block.
        engine, oracle = run_both(DEFAULT, linear_chain(30), 5)
        assert engine.slots_used // 2 > init_tree._COIN_BLOCK
        assert_same_run(engine, oracle)

    def test_forced_tiled_store(self, monkeypatch):
        monkeypatch.setattr(network, "DENSE_BUDGET_BYTES", 0)
        nodes = uniform_random(64, np.random.default_rng(2))
        assert isinstance(NetworkState.for_nodes(nodes), TiledNetworkState)
        for params in (DEFAULT, FADING):
            engine, oracle = run_both(params, nodes, 9)
            assert_same_run(engine, oracle)

    def test_non_convergence_raises_alike(self):
        nodes = uniform_random(40, np.random.default_rng(3))
        builder = InitialTreeBuilder(DEFAULT, FEW_PAIRS, max_sweeps=1)
        with pytest.raises(ProtocolError, match="within 1 sweeps") as engine_error:
            builder.build(nodes, np.random.default_rng(11))
        with pytest.raises(ProtocolError) as oracle_error:
            build_init_reference(builder, nodes, np.random.default_rng(11))
        assert str(engine_error.value) == str(oracle_error.value)

    def test_matches_netsim_without_faults(self):
        nodes = uniform_random(48, np.random.default_rng(4))
        engine = InitialTreeBuilder(DEFAULT).build(nodes, np.random.default_rng(8))
        net = NetInitBuilder(DEFAULT, plan=None).build(nodes, np.random.default_rng(8))
        assert_same_run(engine, net)


class TestCoinStreams:
    def test_block_draw_equals_scalar_draws(self):
        block = np.random.default_rng(2024).random(init_tree._COIN_BLOCK)
        scalar_rng = np.random.default_rng(2024)
        scalars = [scalar_rng.random() for _ in range(init_tree._COIN_BLOCK)]
        assert block.tolist() == scalars


BUILDERS = [InitialTreeBuilder(DEFAULT), NetInitBuilder(DEFAULT, plan=None)]


@pytest.mark.parametrize("builder", BUILDERS, ids=["lockstep", "netsim"])
class TestInputRejection:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate(self, builder, bad):
        nodes = [Node(0, Point(0.0, 0.0)), Node(1, Point(bad, 1.0)), Node(2, Point(2.0, 0.0))]
        with pytest.raises(ConfigurationError, match="non-finite coordinate"):
            builder.build(nodes, np.random.default_rng(0))

    def test_non_finite_single_node(self, builder):
        with pytest.raises(ConfigurationError, match="non-finite coordinate"):
            builder.build([Node(0, Point(0.0, math.nan))], np.random.default_rng(0))

    def test_coincident_nodes(self, builder):
        # A zero distance is an infinite gain: both builders once built
        # {0: 2, 2: 1} on this input.
        nodes = [Node(0, Point(0.0, 0.0)), Node(1, Point(3.0, 0.0)), Node(2, Point(0.0, 0.0))]
        with pytest.raises(ConfigurationError, match="nodes 0 and 2 share the position"):
            builder.build(nodes, np.random.default_rng(0))

    def test_duplicate_ids(self, builder):
        nodes = [Node(0, Point(0.0, 0.0)), Node(0, Point(3.0, 0.0))]
        with pytest.raises(ProtocolError, match="duplicate node ids"):
            builder.build(nodes, np.random.default_rng(0))
