"""The benchmark's workloads: one pass of the paper pipeline per call.

Every workload is a closed loop of identical passes over a fixed set of
deployments, its *instances*, all generated from the seed.  A pass runs every
instance in turn.  An instance receives only generated inputs (the nodes, and
the seed and instance number from which it draws fresh protocol rngs and fault
seeds), runs its stages through the public ``repro`` API, checks every output
into a :class:`Checks` ledger, and returns the simulated quantities it
produced; the pass reports their mean over the instances.  For a fixed seed
those quantities repeat exactly from pass to pass and with tracing on or off.

How long an instance takes depends on its random deployment and protocol
draws (the Distr-Cap work of TreeViaCapacity, the crash victims and repair of
the lossy run); a workload whose instance cost spreads widely from seed to
seed runs several instances per pass, so that one seed's pass time stays close
to another's.

``repro`` is reached through its modules (``analysis.validate_bitree``, not a
name imported at load time) so that the tracer's attribute-level patches and
the tests' monkeypatches see every call.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import analysis, core, geometry, netsim, sinr
from repro.exceptions import ScheduleError

__all__ = [
    "Checks",
    "PassResult",
    "Workload",
    "WORKLOADS",
    "deploy",
    "deployment_digest",
    "protocol_rng",
]


@dataclass
class Checks:
    """Output checks of one pass: each attempted check either holds or fails."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, name: str, condition: bool) -> None:
        self.attempted += 1
        if not condition:
            self.failures.append(name)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


@dataclass
class PassResult:
    """What one pass produced: simulated metrics and the output checks."""

    sim: dict[str, float]
    checks: Checks


@dataclass(frozen=True)
class Workload:
    """A named instance function, run on ``instances`` deployments of ``n`` nodes."""

    name: str
    n: int
    instances: int
    why: str
    run_instance: Callable[[list, int, int], PassResult]

    def deploy(self, seed: int, n: int | None = None) -> list[list]:
        """The pass's deployments, one per instance."""
        return [deploy(self.n if n is None else n, seed, k) for k in range(self.instances)]

    def run(self, deployments: list[list], seed: int) -> PassResult:
        """One pass: every instance in turn; simulated metrics are their means."""
        checks = Checks()
        results = []
        for instance, nodes in enumerate(deployments):
            result = self.run_instance(nodes, seed, instance)
            checks.merge(result.checks)
            results.append(result)
        sim = {key: statistics.fmean(r.sim[key] for r in results) for key in results[0].sim}
        return PassResult(sim, checks)


def deploy(n: int, seed: int, instance: int) -> list:
    """One instance's deployment: ``uniform_random`` from the seed's stream 0."""
    return geometry.uniform_random(n, np.random.default_rng([seed, 0, instance]))


def deployment_digest(deployments: list[list]) -> str:
    """Fingerprint of node ids and positions, to compare deployments across processes."""
    digest = hashlib.sha256()
    for nodes in deployments:
        xy = np.array([[node.id, node.x, node.y] for node in nodes], dtype=float)
        digest.update(xy.tobytes())
    return digest.hexdigest()[:16]


def protocol_rng(seed: int, stream: int, instance: int) -> np.random.Generator:
    """A fresh protocol rng; stream 0 is reserved for the deployment."""
    return np.random.default_rng([seed, stream, instance])


def _replay(
    tree: Any, power: Any, params: Any, n: int, checks: Checks, tag: str
) -> tuple[int, int]:
    """Convergecast + broadcast on the channel: (convergecast slots, both slots)."""
    up = analysis.simulate_convergecast(tree, power, params)
    checks.expect(f"{tag}.convergecast_root_value", up.root_value == up.expected_value)
    down = analysis.simulate_broadcast(tree, power, params)
    checks.expect(f"{tag}.broadcast_reaches_all", down.reached == n)
    return up.slots, up.slots + down.slots


def _validate(tree: Any, nodes: list, power: Any, params: Any, checks: Checks, tag: str) -> None:
    report = analysis.validate_bitree(tree, nodes, power, params, check_latency=False)
    checks.expect(f"{tag}.validate_bitree", report.ok)


def pipeline_pass(nodes: list, seed: int, instance: int) -> PassResult:
    """Init -> mean-power reschedule -> TreeViaCapacity (arbitrary, mean) -> checks."""
    params = sinr.SINRParameters()
    protocol = core.ConnectivityProtocol(params)
    checks = Checks()
    n = len(nodes)

    initial = protocol.build_initial_tree(nodes, protocol_rng(seed, 1, instance))
    rescheduled = protocol.reschedule_with_mean_power(initial, protocol_rng(seed, 2, instance))
    tvc = protocol.build_efficient_tree(
        nodes, protocol_rng(seed, 3, instance), power_mode="arbitrary"
    )
    tvc_mean = protocol.build_efficient_tree(
        nodes, protocol_rng(seed, 4, instance), power_mode="mean"
    )

    _validate(initial.tree, nodes, initial.power, params, checks, "init")
    convergecast_slots, replay_slots = _replay(
        initial.tree, initial.power, params, n, checks, "init"
    )
    checks.expect(
        "mean_power.feasible", rescheduled.schedule.is_feasible(rescheduled.power, params)
    )
    for tag, result in (("tvc", tvc), ("tvc_mean", tvc_mean)):
        _validate(result.tree, nodes, result.power, params, checks, tag)
        checks.expect(f"{tag}.aggregation_feasible", result.aggregation_feasible)
        checks.expect(f"{tag}.dissemination_feasible", result.dissemination_feasible)
        replay_slots += _replay(result.tree, result.power, params, n, checks, tag)[1]

    sim = {
        "init_slots": initial.slots_used,
        "mean_power_slots": rescheduled.schedule_length,
        "tvc_slots": tvc.schedule_length,
        "tvc_mean_slots": tvc_mean.schedule_length,
        "tvc_construction_slots": tvc.construction_slots + tvc_mean.construction_slots,
        "convergecast_slots": convergecast_slots,
        "sim_slots": initial.slots_used
        + rescheduled.slots_elapsed
        + tvc.construction_slots
        + tvc_mean.construction_slots
        + replay_slots,
    }
    return PassResult(sim, checks)


def init_pass(nodes: list, seed: int, instance: int) -> PassResult:
    """Init alone, then validation and the convergecast/broadcast replay."""
    params = sinr.SINRParameters()
    checks = Checks()
    initial = core.ConnectivityProtocol(params).build_initial_tree(
        nodes, protocol_rng(seed, 1, instance)
    )
    _validate(initial.tree, nodes, initial.power, params, checks, "init")
    convergecast_slots, replay_slots = _replay(
        initial.tree, initial.power, params, len(nodes), checks, "init"
    )
    sim = {
        "init_slots": initial.slots_used,
        "convergecast_slots": convergecast_slots,
        "sim_slots": initial.slots_used + replay_slots,
    }
    return PassResult(sim, checks)


#: Per-message drop probability of the lossy workload.
LOSS = 0.10
#: Nodes crashed while the lossy Init runs.
INIT_CRASHES = 2


def lossy_pass(nodes: list, seed: int, instance: int) -> PassResult:
    """Lossy Init with crashes, a root-crashed convergecast, failover, resume."""
    params = sinr.SINRParameters()
    checks = Checks()
    ids = [node.id for node in nodes]
    fault_seed = int(np.random.SeedSequence([seed, 9, instance]).generate_state(1)[0])

    oracle = core.InitialTreeBuilder(params).build(nodes, protocol_rng(seed, 1, instance))
    parity = netsim.NetInitBuilder(params, plan=None).build(
        nodes, protocol_rng(seed, 1, instance)
    )
    checks.expect(
        "perfect_transport.parity",
        parity.slots_used == oracle.slots_used and parity.tree.parent == oracle.tree.parent,
    )

    # Both crashes land inside the first sweep, the only one the lossy run makes.
    first_sweep = oracle.slots_used // oracle.sweeps_used
    crashes = netsim.CrashSchedule.sample(
        ids, INIT_CRASHES, horizon=first_sweep, seed=fault_seed, min_slot=1
    )
    plan = netsim.FaultPlan(seed=fault_seed, drop_prob=LOSS, crashes=crashes)
    # One lossy sweep; whatever it leaves unconverged is completed by the
    # repair patch instead of a second full sweep of hashed heartbeats.
    lossy = netsim.NetInitBuilder(params, max_sweeps=1, plan=plan, delivery="reliable").build(
        nodes, protocol_rng(seed, 1, instance)
    )
    alive = set(ids) - set(lossy.crashed)
    checks.expect("lossy_init.spans_survivors", set(lossy.tree.nodes) == alive)
    checks.expect("lossy_init.tree_valid", _tree_valid(lossy.tree))

    tree, power = lossy.tree, lossy.power
    root = tree.root_id
    crash_slot = max(1, tree.aggregation_schedule.length // 2)
    root_plan = netsim.FaultPlan(
        seed=fault_seed,
        drop_prob=LOSS,
        crashes=netsim.CrashSchedule((netsim.CrashWindow(root, crash_slot),)),
    )
    interrupted = netsim.run_convergecast(tree, power, params, plan=root_plan, quorum=0.5)
    failover = netsim.run_root_failover(
        tree,
        power,
        params=params,
        plan=root_plan,
        crashed_ids=[root],
        rng=protocol_rng(seed, 5, instance),
        start_slot=interrupted.slots,
    )
    survivors = set(tree.nodes) - {root}
    leader = max(survivors, key=lambda nid: netsim.election_priority(root_plan.seed, nid))
    checks.expect("failover.max_priority_leader", failover.new_root_id == leader)
    checks.expect("failover.spans_survivors", set(failover.tree.nodes) == survivors)
    checks.expect("failover.tree_valid", _tree_valid(failover.tree))
    resumed = netsim.run_convergecast(
        failover.tree,
        failover.power,
        params,
        plan=root_plan.without_crashes(),
        slot_offset=interrupted.slots + failover.slots_used,
        quorum=0.5,
    )
    checks.expect("resumed.quorum_met", resumed.quorum_met)

    sim = {
        "init_slots": oracle.slots_used,
        "lossy_init_slots": lossy.slots_used,
        "lossy_slot_overhead": lossy.slots_used / oracle.slots_used,
        "convergecast_slots": resumed.slots,
        "delivered_ratio": len(resumed.contributing) / len(survivors),
        "recovery_slots": failover.slots_used,
        "sim_slots": oracle.slots_used
        + parity.slots_used
        + lossy.slots_used
        + interrupted.slots
        + failover.slots_used
        + resumed.slots,
    }
    return PassResult(sim, checks)


def _tree_valid(tree: Any) -> bool:
    try:
        tree.validate()
    except ScheduleError:
        return False
    return True


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pipeline-512",
            512,
            3,
            "whole paper pipeline (Init, mean power, TreeViaCapacity x2, checks) on 3 "
            "deployments of n=512: per-agent Python dominates, decode is cached",
            pipeline_pass,
        ),
        Workload(
            "init-3k",
            3072,
            1,
            "Init + validation + replay at n=3072, above the 2048-node cached-channel "
            "limit: every slot decodes through the object path",
            init_pass,
        ),
        Workload(
            "lossy-512",
            512,
            3,
            "netsim Init under 10% loss and 2 crashes, root-crash convergecast, failover "
            "and resume on 3 deployments of n=512: fault-plane hashing dominates",
            lossy_pass,
        ),
    )
}
