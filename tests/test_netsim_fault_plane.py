"""Pins the batched netsim fault plane against its per-node oracle.

``FaultyTransport.admit``, ``heartbeat_delivered`` and ``crashed_ids`` answer
a whole slot in one vectorized call, and ``HeartbeatDetector.observe``
applies a whole heartbeat slot at once.  The oracles in
``tests/oracles/netsim.py`` are the per-sender / per-node loops they
replaced.  Over random plans - drops, heartbeat loss, latency, partitions,
crash-stop and crash-recover windows, a transport slot offset and a detector
watching a strict subset of the nodes - both must produce the same fault
trace (list by list, in order), digest, detector views, send budgets,
execution trace and telemetry counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_CONSTANTS
from repro.core.quantities import num_rounds_for_delta
from repro.exceptions import ConfigurationError
from repro.geometry import diameter, uniform_random
from repro.netsim import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    FaultyTransport,
    HeartbeatDetector,
    LatencyModel,
    NetSimulator,
    Partition,
)
from repro.obs.runtime import telemetry
from repro.runtime import spawn_agent_rngs
from repro.sinr import Channel, SINRParameters

from .oracles import InitAgent, OracleFaultyTransport, OracleHeartbeatDetector, OracleNetSimulator

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)
N = 14
SLOTS = 90
NODES = uniform_random(N, np.random.default_rng(3))
IDS = [node.id for node in NODES]

_probs = st.sampled_from([0.0, 0.05, 0.2, 0.45])


@st.composite
def _windows(draw) -> CrashWindow:
    # One id outside the agent set: the runtime must ignore it.
    node_id = draw(st.sampled_from(IDS + [max(IDS) + 1]))
    start = draw(st.integers(0, 60))
    length = draw(st.one_of(st.none(), st.integers(1, 40)))
    return CrashWindow(node_id, start, None if length is None else start + length)


@st.composite
def _partitions(draw) -> Partition:
    left = draw(st.sets(st.sampled_from(IDS), min_size=1, max_size=N - 1))
    start = draw(st.integers(0, 50))
    length = draw(st.one_of(st.none(), st.integers(1, 40)))
    return Partition(frozenset(left), start, None if length is None else start + length)


@st.composite
def _plans(draw) -> FaultPlan:
    latency = draw(
        st.one_of(
            st.none(),
            st.builds(
                LatencyModel,
                delay_prob=st.sampled_from([0.0, 0.1, 0.4]),
                mean_slots=st.sampled_from([1.0, 1.5, 3.0]),
                max_slots=st.integers(1, 4),
            ),
        )
    )
    return FaultPlan(
        seed=draw(st.integers(0, 2**20)),
        drop_prob=draw(_probs),
        latency=latency,
        crashes=CrashSchedule(tuple(draw(st.lists(_windows(), max_size=4)))),
        partitions=tuple(draw(st.lists(_partitions(), max_size=2))),
        heartbeat_drop_prob=draw(st.one_of(st.none(), _probs)),
    )


def _agents(seed: int) -> list[InitAgent]:
    rounds = num_rounds_for_delta(max(diameter(NODES), 1.0))
    pairs = DEFAULT_CONSTANTS.slot_pairs_per_round(N)
    rngs = spawn_agent_rngs(np.random.default_rng(seed), N)
    return [
        InitAgent(
            node=node,
            rng=rng,
            params=PARAMS,
            constants=DEFAULT_CONSTANTS,
            rounds_per_sweep=rounds,
            slot_pairs_per_round=pairs,
        )
        for node, rng in zip(NODES, rngs)
    ]


def _run(sim_cls, transport, detector, seed: int):
    with telemetry() as registry:
        sim = sim_cls(_agents(seed), Channel(PARAMS), transport, detector=detector)
        views = []
        for _ in range(SLOTS):
            sim.step("chaos")
            views.append(
                (detector.suspected_ids(), detector.alive_view(), detector.active_view())
            )
    trace = transport.trace
    return {
        "fault_lists": (
            trace.dropped,
            trace.delayed,
            trace.crashes,
            trace.recoveries,
            trace.heartbeat_losses,
        ),
        "digest": trace.digest(),
        "views": views,
        "send_budget": sim.send_budget,
        "summary": sim.fault_summary(),
        "records": sim.trace.records,
        "parents": [agent.parent_id for agent in sim.agents],
        "counters": registry.counter_totals(),
    }


class TestBatchedFaultPlaneParity:
    @settings(max_examples=30, deadline=None)
    @given(
        plan=_plans(),
        slot_offset=st.integers(0, 50),
        monitored=st.lists(st.booleans(), min_size=N, max_size=N).filter(
            lambda mask: not all(mask)
        ),
        interval=st.integers(1, 2),
        miss_threshold=st.integers(1, 3),
        seed=st.integers(0, 1000),
    )
    def test_netsim_matches_per_node_oracle(
        self, plan, slot_offset, monitored, interval, miss_threshold, seed
    ):
        watched = [node_id for node_id, keep in zip(IDS, monitored) if keep]
        new = _run(
            NetSimulator,
            FaultyTransport(plan, slot_offset=slot_offset),
            HeartbeatDetector(watched, interval=interval, miss_threshold=miss_threshold),
            seed,
        )
        oracle = _run(
            OracleNetSimulator,
            OracleFaultyTransport(plan, slot_offset=slot_offset),
            OracleHeartbeatDetector(watched, interval=interval, miss_threshold=miss_threshold),
            seed,
        )
        assert new == oracle

    @settings(max_examples=40, deadline=None)
    @given(
        plan=_plans(),
        slot=st.integers(0, 80),
        pairs=st.lists(
            st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)), min_size=1, max_size=40
        ),
    )
    def test_admit_matches_per_sender_oracle(self, plan, slot, pairs):
        src = np.array([s for s, _ in pairs], dtype=np.int64)
        dst = np.array([d for _, d in pairs], dtype=np.int64)
        new, oracle = FaultyTransport(plan), OracleFaultyTransport(plan)
        delivered, delay = new.admit(slot, src, dst)
        delivered_ref, delay_ref = oracle.admit(slot, src, dst)
        assert np.array_equal(delivered, delivered_ref)
        assert np.array_equal(delay, delay_ref)
        assert new.trace.dropped == oracle.trace.dropped
        assert new.trace.delayed == oracle.trace.delayed

    @settings(max_examples=40, deadline=None)
    @given(plan=_plans(), slot=st.integers(0, 120))
    def test_liveness_matches_scalar_oracle(self, plan, slot):
        new, oracle = FaultyTransport(plan), OracleFaultyTransport(plan)
        ids = np.array(IDS, dtype=np.int64)
        arrived = new.heartbeat_delivered(ids, slot)
        assert arrived.tolist() == [oracle.node_heartbeat_delivered(i, slot) for i in IDS]
        assert new.trace.heartbeat_losses == oracle.trace.heartbeat_losses
        assert [new.is_crashed(i, slot) for i in IDS] == [
            oracle.node_crashed(i, slot) for i in IDS
        ]


class TestFaultConfigValidation:
    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_latency_rejects_non_finite_mean(self, mean):
        with pytest.raises(ConfigurationError):
            LatencyModel(delay_prob=0.5, mean_slots=mean)

    @pytest.mark.parametrize("start, end", [(10, 5), (4, 4), (-1, None), (-3, 2)])
    def test_crash_window_rejects_empty_or_negative(self, start, end):
        with pytest.raises(ConfigurationError):
            CrashWindow(3, start, end)

    def test_crash_window_accepts_valid(self):
        assert CrashWindow(3, 0).covers(10**6)
        assert CrashWindow(3, 5, 6).covers(5)

    def test_detector_rejects_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            HeartbeatDetector([1, 2, 2])

    def test_detector_rejects_unmonitored_ids(self):
        detector = HeartbeatDetector([1, 2])
        with pytest.raises(ConfigurationError):
            detector.observe([3], [False], [])


class TestBatchedDetector:
    def test_one_batch_equals_sequential_oracle_updates(self):
        batched = HeartbeatDetector([5, 1, 9, 4], miss_threshold=2)
        sequential = OracleHeartbeatDetector([5, 1, 9, 4], miss_threshold=2)
        for slot, (arrived, done, missed) in enumerate(
            [([5, 9], [True, False], [1, 4]), ([4], [False], [1, 5, 9]), ([1], [True], [9])]
        ):
            batched.observe(arrived, done, missed)
            for node_id, flag in zip(arrived, done):
                sequential.observe_heartbeat(node_id, slot, done=flag)
            for node_id in missed:
                sequential.observe_miss(node_id, slot)
            assert batched.suspected_ids() == sequential.suspected_ids()
            assert batched.alive_view() == sequential.alive_view()
            assert batched.active_view() == sequential.active_view()
        assert batched.suspected_ids() == {9}
        assert batched.alive_view() == [5, 1, 4]
