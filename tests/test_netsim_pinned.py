"""A seeded n=64 lossy run pinned to recorded literals.

The parity suites compare the fault plane with oracles that hash through the
same ``repro.coins`` functions, so a changed hash, stream tag or uniform
mapping would move both sides alike and pass.  These literals catch any such
change.  They were first recorded from the per-slot fault plane before it
answered from tables, and recorded again when Init's coins became counter
hashes (the fault-plane hashes themselves did not move): a reliable ``NetInit`` with two crashes, a
convergecast interrupted by a root crash, root failover and the resumed
convergecast, then a second ``NetInit`` under latency, a partition, separate
heartbeat loss, a crash-recover window and a slot offset.  Every fault
digest, fault summary, send budget and ``netsim.*`` counter is pinned.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import InitialTreeBuilder
from repro.geometry import uniform_random
from repro.netsim import (
    CrashSchedule,
    CrashWindow,
    FaultPlan,
    LatencyModel,
    NetInitBuilder,
    Partition,
    run_convergecast,
    run_root_failover,
)
from repro.obs.runtime import telemetry
from repro.sinr import SINRParameters

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)
N = 64
SEED = 5


def _fingerprint(obj: object) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


def _run() -> dict:
    nodes = uniform_random(N, np.random.default_rng(SEED))
    ids = [node.id for node in nodes]
    oracle = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(SEED + 1))
    first_sweep = oracle.slots_used // oracle.sweeps_used
    crashes = CrashSchedule.sample(ids, 2, horizon=first_sweep, seed=SEED, min_slot=1)
    plan = FaultPlan(seed=SEED, drop_prob=0.1, crashes=crashes)
    with telemetry() as registry:
        lossy = NetInitBuilder(PARAMS, max_sweeps=3, plan=plan).build(
            nodes, np.random.default_rng(SEED + 1)
        )
        tree, power = lossy.tree, lossy.power
        root = tree.root_id
        crash_slot = max(1, tree.aggregation_schedule.length // 2)
        root_plan = FaultPlan(
            seed=SEED, drop_prob=0.1, crashes=CrashSchedule((CrashWindow(root, crash_slot),))
        )
        interrupted = run_convergecast(tree, power, PARAMS, plan=root_plan, quorum=0.5)
        failover = run_root_failover(
            tree,
            power,
            params=PARAMS,
            plan=root_plan,
            crashed_ids=[root],
            rng=np.random.default_rng(SEED + 2),
            start_slot=interrupted.slots,
        )
        resumed = run_convergecast(
            failover.tree,
            failover.power,
            PARAMS,
            plan=root_plan.without_crashes(),
            slot_offset=interrupted.slots + failover.slots_used,
            quorum=0.5,
        )
        mixed = FaultPlan(
            seed=SEED + 1,
            drop_prob=0.05,
            heartbeat_drop_prob=0.2,
            latency=LatencyModel(delay_prob=0.2, mean_slots=2.0, max_slots=3),
            partitions=(Partition(frozenset(ids[:20]), 30, 90),),
            crashes=CrashSchedule((CrashWindow(ids[3], 10, 40), CrashWindow(ids[7], 25))),
        )
        latent = NetInitBuilder(PARAMS, max_sweeps=2, plan=mixed, slot_offset=7).build(
            nodes, np.random.default_rng(SEED + 3)
        )
    return {
        "lossy": (
            lossy.fault_digest,
            lossy.fault_summary,
            lossy.slots_used,
            sum(lossy.send_budget.values()),
            _fingerprint(sorted(lossy.send_budget.items())),
            _fingerprint(sorted(lossy.tree.parent.items())),
        ),
        "interrupted": (
            interrupted.fault_digest,
            interrupted.fault_summary,
            interrupted.slots,
            interrupted.retries,
        ),
        "failover": (
            failover.new_root_id,
            failover.slots_used,
            _fingerprint(sorted(failover.tree.parent.items())),
        ),
        "resumed": (resumed.fault_digest, resumed.fault_summary, resumed.slots, resumed.retries),
        "latent": (
            latent.fault_digest,
            latent.fault_summary,
            latent.slots_used,
            sum(latent.send_budget.values()),
            _fingerprint(sorted(latent.send_budget.items())),
            _fingerprint(sorted(latent.tree.parent.items())),
        ),
        "counters": {
            name: value
            for name, value in sorted(registry.counter_totals().items())
            if name.startswith("netsim.")
        },
    }


EXPECTED = {
    "lossy": (
        "98297be96af5aea9bcfd1517b66d255e5baf2de1",
        {
            "dropped": 544,
            "delayed": 0,
            "crashes": 2,
            "recoveries": 0,
            "heartbeat_losses": 2442,
            "receiver_busy_drops": 0,
            "crash_drops": 0,
            "transmissions": 602,
        },
        396,
        602,
        "7223986031fcc102",
        "161c2d5e34b15dfe",
    ),
    "interrupted": (
        "05cea7aa45dc0e99f1aec5ef6efe426e676da40c",
        {"dropped": 3, "delayed": 0, "crashes": 0, "recoveries": 0, "heartbeat_losses": 0},
        69,
        27,
    ),
    "failover": (29, 178, "c327112030982291"),
    "resumed": (
        "a3bd2054c1e9f46d98d05e8da0defe630c4d515e",
        {"dropped": 2, "delayed": 0, "crashes": 0, "recoveries": 0, "heartbeat_losses": 0},
        46,
        2,
    ),
    "latent": (
        "cffcb816970134b7467a625d6eda04205cf30571",
        {
            "dropped": 502,
            "delayed": 1116,
            "crashes": 2,
            "recoveries": 1,
            "heartbeat_losses": 5371,
            "receiver_busy_drops": 362,
            "crash_drops": 0,
            "transmissions": 772,
        },
        512,
        772,
        "66d075bcfabe626f",
        "49142139efd33c92",
    ),
    "counters": {
        "netsim.agg_retries": 29,
        "netsim.crashes": 4,
        "netsim.degraded_aggregations": 1,
        "netsim.delayed": 1117,
        "netsim.deliveries": 9465,
        "netsim.dropped": 1070,
        "netsim.election_rounds": 1,
        "netsim.elections": 1,
        "netsim.elections_won": 1,
        "netsim.heartbeat_misses": 9078,
        "netsim.heartbeats": 45130,
        "netsim.receiver_busy_drops": 363,
        "netsim.recoveries": 1,
        "netsim.reliable_posts": 60,
        "netsim.reroot_splices": 1,
        "netsim.sends": 1449,
        "netsim.slots": 1084,
        "netsim.suspicions": 173,
    },
}


@pytest.fixture(scope="module")
def outcome() -> dict:
    return _run()


@pytest.mark.parametrize("part", sorted(EXPECTED))
def test_lossy_run_matches_recorded_literals(outcome, part):
    assert outcome[part] == EXPECTED[part]


def test_literals_hold_without_telemetry(outcome):
    """Telemetry on or off, the run (and so every digest) is the same."""
    nodes = uniform_random(N, np.random.default_rng(SEED))
    oracle = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(SEED + 1))
    crashes = CrashSchedule.sample(
        [node.id for node in nodes],
        2,
        horizon=oracle.slots_used // oracle.sweeps_used,
        seed=SEED,
        min_slot=1,
    )
    plan = FaultPlan(seed=SEED, drop_prob=0.1, crashes=crashes)
    lossy = NetInitBuilder(PARAMS, max_sweeps=3, plan=plan).build(
        nodes, np.random.default_rng(SEED + 1)
    )
    assert lossy.fault_digest == EXPECTED["lossy"][0]
    assert lossy.fault_summary == EXPECTED["lossy"][1]
