"""Parity of netsim ``Init`` (the array program) with the per-agent protocol.

``NetInitBuilder.build`` steps the same array program as the lockstep
builder, over ``NetSimulator``'s program path: crashes reach it through its
crash hooks and delayed frames through ``receive_late``.  The oracle in
``tests/oracles/init.py`` runs one ``InitAgent`` per node through the
runtime's agent path and assembles the result from the agents.  Over random
fault plans - drops, heartbeat loss, latency, partitions, crash-stop and
crash-recover windows - both must agree on every result field, every fault
trace list and digest, the detector's views after every slot, every trace
column and every telemetry counter, completion patches included.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NodeCrashedError, ProtocolError
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
from repro.geometry import uniform_random
from repro.netsim import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    LatencyModel,
    NetInitBuilder,
    NetSimulator,
    Partition,
)
from repro.obs.runtime import telemetry
from repro.sinr import SINRParameters
from repro.state import NetworkState, TiledNetworkState, network

from .oracles import build_net_init_reference

PARAMS = SINRParameters()
N_MAX = 24

_probs = st.sampled_from([0.0, 0.05, 0.2, 0.4])


@st.composite
def _windows(draw, n: int) -> CrashWindow:
    node_id = draw(st.integers(0, n - 1))
    start = draw(st.integers(0, 120))
    length = draw(st.one_of(st.none(), st.integers(1, 80)))
    return CrashWindow(node_id, start, None if length is None else start + length)


@st.composite
def _partitions(draw, n: int) -> Partition:
    left = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    start = draw(st.integers(0, 100))
    length = draw(st.one_of(st.none(), st.integers(1, 60)))
    return Partition(frozenset(left), start, None if length is None else start + length)


@st.composite
def _plans(draw, n: int) -> FaultPlan:
    latency = draw(
        st.one_of(
            st.none(),
            st.builds(
                LatencyModel,
                delay_prob=st.sampled_from([0.1, 0.3, 0.5]),
                mean_slots=st.sampled_from([1.0, 2.0, 3.0]),
                max_slots=st.integers(1, 5),
            ),
        )
    )
    return FaultPlan(
        seed=draw(st.integers(0, 2**20)),
        drop_prob=draw(_probs),
        latency=latency,
        crashes=CrashSchedule(tuple(draw(st.lists(_windows(n), max_size=3)))),
        partitions=tuple(draw(st.lists(_partitions(n), max_size=2))),
        heartbeat_drop_prob=draw(st.one_of(st.none(), _probs)),
    )


def _trace_columns(trace) -> tuple:
    return (
        list(trace._slots),
        list(trace._labels),
        list(trace._tx_flat),
        list(trace._tx_offsets),
        list(trace._rx_listeners),
        list(trace._rx_senders),
        list(trace._rx_offsets),
    )


def _result_fields(result) -> dict:
    return {
        "root": result.tree.root_id,
        "parent": result.tree.parent,
        "stamps": result.tree.slot_stamps(),
        "slots_used": result.slots_used,
        "rounds_used": result.rounds_used,
        "sweeps_used": result.sweeps_used,
        "delta": result.delta,
        "power": result.power.as_dict(),
        "fallback": result.power.fallback.level,
        "link_rounds": result.link_rounds,
        "trace": _trace_columns(result.trace),
        "stored_degrees": result.stored_degrees,
        "crashed": result.crashed,
        "reattached": result.reattached,
        "completed_by_repair": result.completed_by_repair,
        "completion_slots": result.completion_slots,
        "send_budget": result.send_budget,
        "fault_summary": result.fault_summary,
        "fault_digest": result.fault_digest,
    }


@contextmanager
def _watching_runtimes() -> Iterator[list[tuple[NetSimulator, list]]]:
    """Record every ``NetSimulator`` stepped in the block and its detector
    views after each of its slots."""
    runs: list[tuple[NetSimulator, list]] = []
    views_of: dict[int, list] = {}
    real_step = NetSimulator.step

    def step(self, label=""):
        record = real_step(self, label)
        views = views_of.get(id(self))
        if views is None:
            views = views_of[id(self)] = []
            runs.append((self, views))
        detector = self.detector
        views.append((detector.suspected_ids(), detector.alive_view(), detector.active_view()))
        return record

    NetSimulator.step = step
    try:
        yield runs
    finally:
        NetSimulator.step = real_step


def _observe(build: Callable[[], object]) -> dict:
    """Everything a netsim ``Init`` run exposes, or the error it raised."""
    with _watching_runtimes() as runs, telemetry() as registry:
        try:
            outcome = ("result", _result_fields(build()))
        except (ProtocolError, NodeCrashedError) as error:
            outcome = ("error", type(error), str(error))
    runtimes = []
    for sim, views in runs:
        faults = sim.fault_trace
        runtimes.append(
            {
                "views": views,
                "trace": _trace_columns(sim.trace),
                "send_budget": sim.send_budget,
                "summary": sim.fault_summary(),
                "fault_lists": None
                if faults is None
                else (
                    faults.dropped,
                    faults.delayed,
                    faults.crashes,
                    faults.recoveries,
                    faults.heartbeat_losses,
                ),
                "digest": None if faults is None else faults.digest(),
            }
        )
    return {"outcome": outcome, "runtimes": runtimes, "counters": registry.counter_totals()}


def _assert_parity(builder: NetInitBuilder, nodes, seed: int) -> dict:
    new = _observe(lambda: builder.build(nodes, np.random.default_rng(seed)))
    oracle = _observe(
        lambda: build_net_init_reference(builder, nodes, np.random.default_rng(seed))
    )
    assert new["outcome"] == oracle["outcome"]
    assert len(new["runtimes"]) == len(oracle["runtimes"])
    for ours, theirs in zip(new["runtimes"], oracle["runtimes"]):
        assert ours == theirs
    assert new["counters"] == oracle["counters"]
    return new


#: Seed-38 instance whose delayed acks close a parent cycle.
CYCLE_NODES = uniform_random(16, np.random.default_rng(38))
CYCLE_PLAN = FaultPlan(seed=38, latency=LatencyModel(delay_prob=0.5, mean_slots=2.0, max_slots=5))


class TestNetInitParity:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, N_MAX),
        deploy_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        slot_offset=st.sampled_from([0, 37]),
        delivery=st.sampled_from(["reliable", "fire-and-forget"]),
    )
    def test_matches_per_agent_protocol(self, data, n, deploy_seed, seed, slot_offset, delivery):
        nodes = uniform_random(n, np.random.default_rng(deploy_seed))
        plan = data.draw(_plans(n))
        builder = NetInitBuilder(PARAMS, plan=plan, delivery=delivery, slot_offset=slot_offset)
        _assert_parity(builder, nodes, seed)

    @pytest.mark.parametrize("delivery", ["reliable", "fire-and-forget"])
    def test_perfect_transport(self, delivery):
        nodes = uniform_random(40, np.random.default_rng(6))
        _assert_parity(NetInitBuilder(PARAMS, plan=None, delivery=delivery), nodes, 7)

    def test_crash_recover_with_latency_and_loss(self):
        nodes = uniform_random(24, np.random.default_rng(12))
        windows = (CrashWindow(3, 5, 40), CrashWindow(8, 30), CrashWindow(11, 2, 3))
        plan = FaultPlan(
            seed=12,
            drop_prob=0.1,
            latency=LatencyModel(delay_prob=0.3, mean_slots=2.0, max_slots=4),
            crashes=CrashSchedule(windows),
            heartbeat_drop_prob=0.2,
        )
        seen = _assert_parity(NetInitBuilder(PARAMS, plan=plan), nodes, 13)
        summary = seen["runtimes"][0]["summary"]
        assert summary["crashes"] == 3 and summary["recoveries"] == 2
        assert summary["delayed"] > 0 and summary["receiver_busy_drops"] > 0

    def test_stale_ack_cycle_is_cut(self, monkeypatch):
        cuts: list[list[int]] = []
        real = NetInitBuilder._cycle_cuts

        def spy(node_list, state):
            found = real(node_list, state)
            cuts.append(found)
            return found

        monkeypatch.setattr(NetInitBuilder, "_cycle_cuts", staticmethod(spy))
        builder = NetInitBuilder(PARAMS, plan=CYCLE_PLAN, delivery="reliable")
        seen = _assert_parity(builder, CYCLE_NODES, 39)
        assert cuts and cuts[0]
        outcome = builder.build(CYCLE_NODES, np.random.default_rng(39))
        outcome.tree.validate()
        assert seen["outcome"][0] == "result"

    def test_stale_ack_cycle_raises_without_repair(self):
        builder = NetInitBuilder(PARAMS, plan=CYCLE_PLAN, delivery="fire-and-forget")
        with pytest.raises(ProtocolError, match="parent cycle"):
            builder.build(CYCLE_NODES, np.random.default_rng(39))
        _assert_parity(builder, CYCLE_NODES, 39)

    def test_forced_tiled_store(self, monkeypatch):
        monkeypatch.setattr(network, "DENSE_BUDGET_BYTES", 0)
        nodes = uniform_random(32, np.random.default_rng(2))
        assert isinstance(NetworkState.for_nodes(nodes), TiledNetworkState)
        plan = FaultPlan(
            seed=4,
            drop_prob=0.1,
            latency=LatencyModel(delay_prob=0.3, mean_slots=2.0, max_slots=3),
            crashes=CrashSchedule((CrashWindow(5, 10, 60),)),
        )
        _assert_parity(NetInitBuilder(PARAMS, plan=plan), nodes, 9)
        _assert_parity(NetInitBuilder(PARAMS, plan=CYCLE_PLAN), CYCLE_NODES, 39)


@pytest.mark.parametrize("name", ["E13", "E14"])
def test_quick_rows_identical_across_workers(name):
    config = ExperimentConfig.quick()
    serial = ALL_EXPERIMENTS[name](config)
    parallel = ALL_EXPERIMENTS[name](replace(config, workers=2))
    assert parallel.rows == serial.rows
