"""Property tests: fault reproducibility and crash-survivability invariants.

Two families:

* **Bit-reproducible faults** - every fault decision is a pure function of
  ``(seed, sender, receiver, slot)``, so traces must be identical across
  query orders, node subsets, repeated runs and worker counts.
* **Crash survivability** - whatever partial forest a crash-interrupted
  ``Init`` leaves behind, the repair machinery must complete it into a valid
  spanning tree of the survivors, on every seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import map_trials
from repro.geometry import uniform_random
from repro.netsim import CrashSchedule, FaultPlan, LatencyModel, NetInitBuilder
from repro.sinr import SINRParameters

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)


def _lossy_plan(seed: int, ids: list[int], *, crashes: int = 0) -> FaultPlan:
    schedule = (
        CrashSchedule.sample(ids, crashes, horizon=120, seed=seed, min_slot=8)
        if crashes
        else CrashSchedule()
    )
    return FaultPlan(
        seed=seed,
        drop_prob=0.12,
        latency=LatencyModel(delay_prob=0.05, mean_slots=1.5, max_slots=3),
        crashes=schedule,
    )


def _digest_trial(args: tuple[int, int]) -> tuple[str, int, tuple]:
    """Module-level (picklable) trial: run a lossy Init, return fingerprints."""
    n, seed = args
    nodes = uniform_random(n, np.random.default_rng(seed))
    ids = [node.id for node in nodes]
    plan = _lossy_plan(seed, ids, crashes=1)
    outcome = NetInitBuilder(PARAMS, plan=plan).build(nodes, np.random.default_rng(seed + 50))
    assert outcome.fault_digest is not None
    return (
        outcome.fault_digest,
        outcome.slots_used,
        tuple(sorted(outcome.tree.parent.items())),
    )


class TestFaultDeterminism:
    def test_drop_decisions_independent_of_query_order(self):
        plan = FaultPlan(seed=21, drop_prob=0.3)
        dst = np.arange(200, dtype=np.int64)
        forward = plan.dropped(5, dst, 17)
        # Reversed order, then undone: the per-message decision must match.
        backward = plan.dropped(5, dst[::-1], 17)[::-1]
        assert np.array_equal(forward, backward)

    def test_drop_decisions_independent_of_subset(self):
        plan = FaultPlan(seed=21, drop_prob=0.3)
        dst = np.arange(200, dtype=np.int64)
        full = plan.dropped(5, dst, 17)
        subset = np.array([3, 77, 141], dtype=np.int64)
        assert np.array_equal(plan.dropped(5, subset, 17), full[subset])

    def test_delay_decisions_independent_of_subset(self):
        model = LatencyModel(delay_prob=0.5, mean_slots=2.0, max_slots=5)
        dst = np.arange(150, dtype=np.int64)
        full = model.delays(33, 4, dst, 9)
        subset = np.array([0, 50, 149], dtype=np.int64)
        assert np.array_equal(model.delays(33, 4, subset, 9), full[subset])

    def test_repeated_runs_bit_identical(self):
        first = _digest_trial((32, 5))
        second = _digest_trial((32, 5))
        assert first == second

    def test_digest_identical_across_worker_counts(self):
        """The acceptance pin: workers=1 and workers=2 see the same faults."""
        jobs = [(32, 1), (32, 2), (24, 3)]
        sequential = map_trials(_digest_trial, jobs, workers=1)
        parallel = map_trials(_digest_trial, jobs, workers=2)
        assert sequential == parallel

    def test_heartbeat_loss_is_per_identity(self):
        plan = FaultPlan(seed=9, drop_prob=0.0, heartbeat_drop_prob=0.5)
        history = plan.heartbeat_losses(np.array([3]), 0, 100)[:, 0].tolist()
        assert history == [
            bool(plan.heartbeat_losses(np.array([3]), slot, 1)[0, 0]) for slot in range(100)
        ]
        assert any(history) and not all(history)


class TestCrashSurvivability:
    @pytest.mark.parametrize("seed", range(6))
    def test_crash_during_init_always_completable(self, seed):
        """Whatever forest the crashes leave, the repairer completes it."""
        nodes = uniform_random(32, np.random.default_rng(seed))
        ids = [node.id for node in nodes]
        plan = _lossy_plan(seed, ids, crashes=2)
        outcome = NetInitBuilder(PARAMS, plan=plan, delivery="reliable").build(
            nodes, np.random.default_rng(seed + 100)
        )
        outcome.tree.validate()
        alive = set(ids) - set(outcome.crashed)
        assert set(outcome.tree.nodes) == alive
        assert outcome.tree.is_strongly_connected()

    def test_crash_recovery_rejoins_the_tree(self):
        """A crash window that closes before the end leaves the node spanned."""
        nodes = uniform_random(24, np.random.default_rng(40))
        ids = [node.id for node in nodes]
        schedule = CrashSchedule.sample(
            ids, 2, horizon=60, seed=40, min_slot=8, recover_after=12
        )
        plan = FaultPlan(seed=40, drop_prob=0.1, crashes=schedule)
        outcome = NetInitBuilder(PARAMS, plan=plan).build(
            nodes, np.random.default_rng(41)
        )
        outcome.tree.validate()
        assert outcome.crashed == frozenset()
        assert set(outcome.tree.nodes) == set(ids)
        assert outcome.fault_summary["recoveries"] == 2

    def test_completion_patch_continues_fault_streams(self):
        """A run that needed a patch reports patch slots and stays spanning."""
        found_patch = False
        for seed in range(12):
            nodes = uniform_random(32, np.random.default_rng(seed))
            ids = [node.id for node in nodes]
            plan = _lossy_plan(seed, ids, crashes=2)
            outcome = NetInitBuilder(PARAMS, plan=plan).build(
                nodes, np.random.default_rng(seed + 100)
            )
            if outcome.completed_by_repair:
                found_patch = True
                assert outcome.completion_slots >= 0
                assert outcome.reattached
                assert outcome.slots_used >= outcome.completion_slots
        assert found_patch, "no seed exercised the completion patch"
