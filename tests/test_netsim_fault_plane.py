"""Pins the batched netsim fault plane against its per-node oracle.

``FaultyTransport.admit``, ``heartbeat_delivered`` and ``crashed_ids`` answer
a whole slot in one vectorized call, from tables built once (per-sender drop
keys, a heartbeat loss table per id set and block of hashed slots, the crash
schedule's change slots); ``HeartbeatDetector`` queues heartbeat slots and
applies them in one pass before a read; and ``NetSimulator`` steps ``Init``
as one array program.  The oracles in ``tests/oracles/netsim.py`` are the
per-sender / per-node / per-agent loops and per-call draws they replaced,
here stepping one ``InitAgent`` per node.  Over random plans - drops,
heartbeat loss, latency, partitions, crash-stop and crash-recover windows, a
transport slot offset and a detector watching a strict subset of the nodes -
both must produce the same fault trace (list by list, in order), digest,
detector views, send budgets, execution trace, parents and telemetry
counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DEFAULT_CONSTANTS
from repro.core.init_tree import _InitProgram
from repro.core.quantities import num_rounds_for_delta
from repro.exceptions import ConfigurationError, NodeCrashedError
from repro.geometry import diameter, uniform_random
from repro.netsim import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    FaultyTransport,
    HeartbeatDetector,
    LatencyModel,
    NetInitBuilder,
    NetSimulator,
    Partition,
)
from repro.netsim.transport import HEARTBEAT_BLOCK
from repro.obs import MetricsRegistry
from repro.obs.runtime import OBS, disable, enable, telemetry
from repro.sinr import Channel, SINRParameters

from .oracles import (
    InitAgent,
    OracleFaultyTransport,
    OracleHeartbeatDetector,
    OracleNetSimulator,
    crashed_ids_scan,
    dropped_per_call,
    heartbeat_lost_per_slot,
    severs_per_call,
)

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


ROUNDS = num_rounds_for_delta(max(diameter(NODES), 1.0))
PAIRS = DEFAULT_CONSTANTS.slot_pairs_per_round(N)


def _program(seed: int) -> _InitProgram:
    return _InitProgram(NODES, PARAMS, DEFAULT_CONSTANTS, seed)


def _agents(seed: int) -> list[InitAgent]:
    return [
        InitAgent(
            node=node,
            seed=seed,
            params=PARAMS,
            constants=DEFAULT_CONSTANTS,
            rounds_per_sweep=ROUNDS,
            slot_pairs_per_round=PAIRS,
        )
        for node in NODES
    ]


def _run(sim, transport, detector, program=None):
    """Step ``sim`` for ``SLOTS`` slots, opening each round of ``program``
    where an ``InitAgent`` derives it from the slot."""
    views = []
    for slot in range(SLOTS):
        if program is not None and slot % (2 * PAIRS) == 0:
            program.begin_round(slot // (2 * PAIRS) % ROUNDS + 1, slot)
        sim.step("chaos")
        views.append((detector.suspected_ids(), detector.alive_view(), detector.active_view()))
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
        program = _program(seed)
        transport = FaultyTransport(plan, slot_offset=slot_offset)
        detector = HeartbeatDetector(watched, interval=interval, miss_threshold=miss_threshold)
        with telemetry() as registry:
            sim = NetSimulator(program, Channel(PARAMS), transport, detector=detector)
            new = _run(sim, transport, detector, program)
        new["counters"] = registry.counter_totals()
        new["parents"] = [IDS[p] if p >= 0 else None for p in program.state.parent_pos.tolist()]

        agents = _agents(seed)
        transport = OracleFaultyTransport(plan, slot_offset=slot_offset)
        detector = OracleHeartbeatDetector(
            watched, interval=interval, miss_threshold=miss_threshold
        )
        with telemetry() as registry:
            sim = OracleNetSimulator(agents, Channel(PARAMS), transport, detector=detector)
            oracle = _run(sim, transport, detector)
        oracle["counters"] = registry.counter_totals()
        oracle["parents"] = [agent.parent_id for agent in agents]
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
            oracle.is_crashed(i, slot) for i in IDS
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


# -- the fault tables ---------------------------------------------------------

_id_words = st.one_of(
    st.integers(0, 40),
    st.integers(0, 2**18),
    st.integers(-(2**63), 2**63 - 1),
)


class TestFaultTables:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        drop_prob=st.sampled_from([0.05, 0.3, 0.9, 1.0]),
        calls=st.lists(
            st.tuples(
                st.lists(st.tuples(_id_words, _id_words), min_size=1, max_size=12),
                st.integers(0, 2**40),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_drop_key_table_matches_full_hash(self, seed, drop_prob, calls):
        """Calls on one plan grow its sender-key table; a negative or huge
        sender is hashed directly.  Every answer is the full fold's."""
        plan = FaultPlan(seed=seed, drop_prob=drop_prob)
        for pairs, slot in calls:
            src = np.array([s for s, _ in pairs], dtype=np.int64)
            dst = np.array([d for _, d in pairs], dtype=np.int64)
            assert np.array_equal(plan.dropped(src, dst, slot), dropped_per_call(plan, src, dst, slot))
            # One sender against many receivers, and a 2-D block, broadcast.
            assert np.array_equal(
                plan.dropped(int(src[0]), dst, slot), dropped_per_call(plan, int(src[0]), dst, slot)
            )
            grid = plan.dropped(src[:, None], dst[None, :], slot)
            assert np.array_equal(grid, dropped_per_call(plan, src[:, None], dst[None, :], slot))

    @settings(max_examples=40, deadline=None)
    @given(
        plan=_plans(),
        slot_offset=st.integers(0, 200),
        pool=st.lists(
            st.lists(st.booleans(), min_size=N, max_size=N), min_size=1, max_size=3
        ),
        steps=st.lists(
            st.tuples(st.integers(-10, 2 * HEARTBEAT_BLOCK), st.integers(0, 2)),
            min_size=1,
            max_size=25,
        ),
    )
    def test_heartbeat_table_matches_scalar_draws(self, plan, slot_offset, pool, steps):
        """Polls that stay in a block, cross its edge, jump back, or switch
        id set mid-block answer and trace as the scalar per-id draws."""
        new = FaultyTransport(plan, slot_offset=slot_offset)
        oracle = OracleFaultyTransport(plan, slot_offset=slot_offset)
        slot = 0
        for gap, pick in steps:
            slot = max(0, slot + gap)
            mask = pool[pick % len(pool)]
            ids = np.array([i for i, keep in zip(IDS, mask) if keep], dtype=np.int64)
            got = new.heartbeat_delivered(ids, slot)
            assert got.tolist() == oracle.heartbeat_delivered(ids, slot).tolist()
            assert got.tolist() == (~heartbeat_lost_per_slot(plan, ids, slot + slot_offset)).tolist()
        assert new.trace.heartbeat_losses == oracle.trace.heartbeat_losses
        assert new.trace.summary() == oracle.trace.summary()
        assert new.trace.digest() == oracle.trace.digest()

    @settings(max_examples=30, deadline=None)
    @given(plan=_plans(), first=st.integers(0, 300), slots=st.integers(1, 3 * HEARTBEAT_BLOCK))
    def test_partitions_leave_heartbeats_alone(self, plan, first, slots):
        """Heartbeats draw loss only: the same plan without its partitions
        makes the same heartbeat decisions and records the same losses."""
        uncut = dataclasses.replace(plan, partitions=())
        ids = np.array(IDS, dtype=np.int64)
        cut_side, uncut_side = FaultyTransport(plan), FaultyTransport(uncut)
        for slot in range(first, first + slots):
            assert np.array_equal(
                cut_side.heartbeat_delivered(ids, slot), uncut_side.heartbeat_delivered(ids, slot)
            )
        assert cut_side.trace.heartbeat_losses == uncut_side.trace.heartbeat_losses

    def test_partitioned_run_sees_the_same_heartbeats(self):
        """End to end: a NetInit whose plan cuts the deployment in half
        loses exactly the heartbeats of the same plan without the cut."""
        plan = FaultPlan(
            seed=4,
            drop_prob=0.0,
            heartbeat_drop_prob=0.2,
            partitions=(Partition(frozenset(IDS[: N // 2]), 0, None),),
        )
        uncut = dataclasses.replace(plan, partitions=())
        rng = np.random.default_rng
        cut_run = NetInitBuilder(PARAMS, max_sweeps=1, plan=plan).build(NODES, rng(1))
        uncut_run = NetInitBuilder(PARAMS, max_sweeps=1, plan=uncut).build(NODES, rng(1))
        assert cut_run.fault_summary["dropped"] > 0 == uncut_run.fault_summary["dropped"]
        cut_losses = cut_run.fault_trace.heartbeat_losses
        uncut_losses = uncut_run.fault_trace.heartbeat_losses
        # Compare the slots both main runs stepped.
        horizon = min(cut_losses[-1][0], uncut_losses[-1][0])
        assert horizon > 20
        assert [loss for loss in cut_losses if loss[0] < horizon] == [
            loss for loss in uncut_losses if loss[0] < horizon
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.frozensets(st.integers(-3, 20), max_size=8),
        start=st.integers(0, 30),
        length=st.one_of(st.none(), st.integers(1, 30)),
        pairs=st.lists(
            st.tuples(st.integers(-3, 20), st.integers(-3, 20)), min_size=1, max_size=20
        ),
        slots=st.lists(st.integers(0, 70), min_size=1, max_size=5),
    )
    def test_partition_cut_matches_isin(self, left, start, length, pairs, slots):
        """The cut's ids, sorted once per partition, sever the same messages
        as ``np.isin`` over the cut rebuilt on every call."""
        partition = Partition(left, start, None if length is None else start + length)
        src = np.array([s for s, _ in pairs], dtype=np.int64)
        dst = np.array([d for _, d in pairs], dtype=np.int64)
        for slot in slots:
            assert np.array_equal(
                partition.severs(src, dst, slot), severs_per_call(partition, src, dst, slot)
            )
            assert np.array_equal(
                partition.severs(int(src[0]), dst, slot),
                severs_per_call(partition, int(src[0]), dst, slot),
            )

    @settings(max_examples=60, deadline=None)
    @given(windows=st.lists(_windows(), max_size=6))
    def test_crash_timeline_matches_window_scan(self, windows):
        schedule = CrashSchedule(tuple(windows))
        edges = {w.start_slot for w in windows} | {
            w.end_slot for w in windows if w.end_slot is not None
        }
        previous = None
        for slot in range(0, 110):
            down = schedule.crashed_ids(slot)
            assert down == crashed_ids_scan(schedule, slot)
            if previous is not None and slot not in edges:
                # Between two changes the very same set comes back.
                assert down is previous
            previous = down

    @settings(max_examples=60, deadline=None)
    @given(
        node_ids=st.lists(st.integers(-50, 50), min_size=1, max_size=7, unique=True),
        threshold=st.integers(1, 4),
        slots=st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(["skip", "hit", "done", "miss", "done+miss"]),
                    min_size=7,
                    max_size=7,
                ),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=150,
        ),
    )
    def test_queued_detector_matches_oracle(self, node_ids, threshold, slots):
        """Slots queue and apply in one pass at a read (or a full queue):
        views and the heartbeat / miss / suspicion counters at reads taken
        at arbitrary slots equal the per-node oracle's, with telemetry
        switched on and off along the way."""
        batched = HeartbeatDetector(node_ids, miss_threshold=threshold)
        sequential = OracleHeartbeatDetector(node_ids, miss_threshold=threshold)
        registries = {"batched": MetricsRegistry(), "sequential": MetricsRegistry()}
        was_enabled = OBS.enabled
        try:
            for slot, (states, read, counted) in enumerate(slots):
                states = states[: len(node_ids)]
                came = [state in ("hit", "done", "done+miss") for state in states]
                arrived = [i for i, here in zip(node_ids, came) if here]
                flags = [state.startswith("done") for state, here in zip(states, came) if here]
                missed = [i for i, state in zip(node_ids, states) if state.endswith("miss")]
                for name in registries:
                    if counted:
                        enable(registries[name])
                    else:
                        disable()
                    if name == "batched":
                        if "skip" in states or "done+miss" in states:
                            batched.observe(arrived, flags, missed)
                        else:
                            hit = np.array([state != "miss" for state in states])
                            done = np.array([state == "done" for state in states])
                            batched.observe_slot(hit, done)
                    else:
                        for node_id, flag in zip(arrived, flags):
                            sequential.observe_heartbeat(node_id, slot, done=flag)
                        for node_id in missed:
                            sequential.observe_miss(node_id, slot)
                disable()
                if read:
                    assert batched.suspected_ids() == sequential.suspected_ids()
                    assert batched.alive_view() == sequential.alive_view()
                    assert batched.active_view() == sequential.active_view()
            assert batched.suspected_ids() == sequential.suspected_ids()
            for node_id in node_ids:
                if node_id in sequential.suspected_ids():
                    with pytest.raises(NodeCrashedError):
                        batched.require_alive(node_id)
                else:
                    batched.require_alive(node_id)
        finally:
            if was_enabled:
                enable()
            else:
                disable()
        assert registries["batched"].counter_totals() == registries["sequential"].counter_totals()


class TestLazyFaultDigest:
    def test_digest_is_computed_on_first_read(self):
        plan = FaultPlan(seed=3, drop_prob=0.2, heartbeat_drop_prob=0.1)
        result = NetInitBuilder(PARAMS, plan=plan).build(NODES, np.random.default_rng(2))
        assert result.fault_trace is not None
        assert "fault_digest" not in vars(result)
        assert result.fault_digest == result.fault_trace.digest()
        assert "fault_digest" in vars(result)

    def test_perfect_transport_has_no_digest(self):
        result = NetInitBuilder(PARAMS).build(NODES, np.random.default_rng(2))
        assert result.fault_trace is None and result.fault_digest is None

    def test_traces_compare_by_fault_history(self):
        plan = FaultPlan(seed=3, drop_prob=0.2)
        first = NetInitBuilder(PARAMS, plan=plan).build(NODES, np.random.default_rng(2))
        again = NetInitBuilder(PARAMS, plan=plan).build(NODES, np.random.default_rng(2))
        other = NetInitBuilder(PARAMS, plan=dataclasses.replace(plan, seed=4)).build(
            NODES, np.random.default_rng(2)
        )
        assert first.fault_trace is not again.fault_trace
        assert first.fault_trace == again.fault_trace
        assert first.fault_trace != other.fault_trace
