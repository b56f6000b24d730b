"""Failover tests: leader election, re-rooting and lossy selection/aggregation.

Four families:

* **Election** - the bully election converges to the unique max-priority
  live node, deterministically, under crashes and message loss.
* **Worker invariance** - a full failover run fingerprints identically under
  ``map_trials`` with 1 and 2 workers (the stateless-fault acceptance pin).
* **Re-rooting** - repeated root kills keep producing valid survivor-spanning
  trees rooted at the elected leader, and the re-rooted schedule still
  aggregates correctly.
* **Zero-fault parity** - over a perfect transport the netsim ``Distr-Cap``
  and aggregation drivers are bit-identical to the lockstep oracles at
  n=128 on three seeds (the acceptance criterion).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.faults import fault_report, overhead_table
from repro.analysis.latency import simulate_broadcast, simulate_convergecast
from repro.core import InitialTreeBuilder
from repro.core.distr_cap import DistrCapSelector
from repro.experiments import map_trials
from repro.geometry import uniform_random
from repro.netsim import (
    BullyElection,
    CrashSchedule,
    FaultPlan,
    NetDistrCapBuilder,
    NetInitBuilder,
    PerfectTransport,
    election_priority,
    run_convergecast,
    run_dissemination,
    run_root_failover,
)
from repro.netsim.faults import CrashWindow
from repro.sinr import SINRParameters

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)


def _built(n: int, seed: int):
    nodes = uniform_random(n, np.random.default_rng(seed))
    return InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(seed + 1))


def _failover_trial(args: tuple[int, int]) -> tuple:
    """Module-level (picklable) trial: crash the root under loss, recover,
    resume aggregation, and return a full fingerprint of the outcome."""
    n, seed = args
    built = _built(n, seed)
    root = built.tree.root_id
    plan = FaultPlan(
        seed=seed,
        drop_prob=0.12,
        crashes=CrashSchedule((CrashWindow(root, 0),)),
    )
    failover = run_root_failover(
        built.tree,
        built.power,
        params=PARAMS,
        plan=plan,
        crashed_ids=[root],
        rng=np.random.default_rng(seed + 300),
    )
    resumed = run_convergecast(
        failover.tree,
        failover.power,
        PARAMS,
        plan=plan.without_crashes(),
        slot_offset=failover.slots_used,
    )
    return (
        failover.new_root_id,
        failover.election.rounds_used,
        failover.election.slots_used,
        failover.election.messages,
        failover.election.retries,
        failover.slots_used,
        tuple(sorted(failover.tree.parent.items())),
        resumed.slots,
        resumed.root_value,
        resumed.fault_digest,
    )


class TestElection:
    def test_priorities_deterministic_and_distinct(self):
        ids = list(range(40))
        first = [election_priority(9, nid) for nid in ids]
        assert first == [election_priority(9, nid) for nid in ids]
        assert len(set(first)) == len(ids)
        # Different seeds permute the ranking (the priority is seeded).
        other = [election_priority(10, nid) for nid in ids]
        assert max(range(40), key=first.__getitem__) != max(
            range(40), key=other.__getitem__
        ) or first != other

    def test_zero_fault_election_is_one_round(self):
        election = BullyElection(list(range(16)), seed=3).elect()
        assert election.converged
        assert election.leader_id == max(
            range(16), key=lambda nid: election_priority(3, nid)
        )
        assert election.rounds_used == 1
        assert election.slots_used == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_converges_to_max_priority_survivor(self, seed):
        """Random crash schedules: the winner is always the highest-priority
        node that is actually alive."""
        ids = list(range(24))
        rng = np.random.default_rng(seed)
        downed = sorted(rng.choice(ids, size=6, replace=False).tolist())
        plan = FaultPlan(
            seed=seed,
            drop_prob=0.15,
            crashes=CrashSchedule(tuple(CrashWindow(nid, 0) for nid in downed)),
        )
        from repro.netsim import FaultyTransport

        election = BullyElection(
            ids, seed=seed, transport=FaultyTransport(plan)
        ).elect()
        live = [nid for nid in ids if nid not in downed]
        assert election.leader_id == max(
            live, key=lambda nid: election_priority(seed, nid)
        )
        # Exactly the crashed nodes that outrank the winner get skipped.
        winner_priority = election_priority(seed, election.leader_id)
        assert election.skipped_crashed == sum(
            1 for nid in downed if election_priority(seed, nid) > winner_priority
        )

    def test_election_is_deterministic(self):
        plan = FaultPlan(seed=11, drop_prob=0.3)
        from repro.netsim import FaultyTransport

        runs = [
            BullyElection(list(range(12)), seed=11, transport=FaultyTransport(plan)).elect()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestWorkerInvariance:
    def test_failover_fingerprint_identical_across_worker_counts(self):
        """The acceptance pin: 3 seeds, workers=1 vs workers=2, identical
        election outcome, tree, and fault digests."""
        jobs = [(24, 1), (24, 2), (32, 3)]
        sequential = map_trials(_failover_trial, jobs, workers=1)
        parallel = map_trials(_failover_trial, jobs, workers=2)
        assert sequential == parallel


class TestReroot:
    def test_repeated_root_kills_keep_tree_valid(self):
        """Kill the root three times in a row; every recovery spans the
        survivors, roots at the elected leader, and still aggregates."""
        built = _built(32, 7)
        tree, power = built.tree, built.power
        dead: set[int] = set()
        for round_index in range(3):
            root = tree.root_id
            dead.add(root)
            failover = run_root_failover(
                tree,
                power,
                params=PARAMS,
                crashed_ids=[root],
                rng=np.random.default_rng(100 + round_index),
                seed=round_index,
            )
            tree, power = failover.tree, failover.power
            tree.validate()
            survivors = set(built.tree.nodes) - dead
            assert set(tree.nodes) == survivors
            assert tree.root_id == failover.new_root_id
            assert failover.new_root_id == max(
                survivors, key=lambda nid: election_priority(round_index, nid)
            )
            assert failover.repair.root_changed
            # The re-rooted schedule still aggregates every survivor.
            resumed = run_convergecast(tree, power, PARAMS)
            assert resumed.correct
            assert resumed.contributing == frozenset(survivors)

    def test_reroot_requires_spanned_preferred_root(self):
        from repro.core.repair import TreeRepairer
        from repro.exceptions import ProtocolError

        built = _built(16, 9)
        repairer = TreeRepairer(PARAMS)
        with pytest.raises(ProtocolError):
            repairer.integrate(
                built.tree,
                built.power,
                failed_ids=[],
                rng=np.random.default_rng(0),
                preferred_root_id=10_000,
            )

    def test_fault_report_counts_failover(self):
        built = _built(24, 5)
        root = built.tree.root_id
        plan = FaultPlan(
            seed=5, drop_prob=0.1, crashes=CrashSchedule((CrashWindow(root, 0),))
        )
        net = NetInitBuilder(PARAMS, plan=FaultPlan(seed=5, drop_prob=0.1)).build(
            uniform_random(24, np.random.default_rng(5)), np.random.default_rng(6)
        )
        failover = run_root_failover(
            built.tree,
            built.power,
            params=PARAMS,
            plan=plan,
            crashed_ids=[root],
            rng=np.random.default_rng(7),
        )
        report = fault_report(net, failover=failover, degraded=True)
        assert report.elections == 1
        assert report.reroots == 1
        assert report.election_slots == failover.election.slots_used
        assert report.degraded
        row = report.as_row()
        assert row["elections"] == 1 and row["reroots"] == 1 and row["degraded"]
        table = overhead_table({0.1: [report]})
        assert "elections" in table and "reroots" in table


class TestZeroFaultParity:
    @pytest.mark.parametrize("seed", (11, 23, 47))
    def test_distr_cap_and_aggregation_match_oracles_at_128(self, seed):
        """Acceptance criterion: over a perfect transport the netsim stack is
        bit-identical to the lockstep oracles at n=128."""
        built = _built(128, seed)
        tree, power = built.tree, built.power
        candidates = tree.aggregation_links()

        cap_oracle = DistrCapSelector(PARAMS).select(
            candidates, np.random.default_rng(seed), link_rounds=built.link_rounds
        )
        cap_net = NetDistrCapBuilder(PARAMS).select(
            candidates, np.random.default_rng(seed), link_rounds=built.link_rounds
        )
        assert [l.endpoint_ids for l in cap_net.selected] == [
            l.endpoint_ids for l in cap_oracle.selected
        ]
        assert cap_net.slots_used == cap_oracle.slots_used
        assert cap_net.phases == cap_oracle.phases
        assert cap_net.power_controllable == cap_oracle.power_controllable
        assert not cap_net.degraded

        up_oracle = simulate_convergecast(tree, power, PARAMS)
        up_net = run_convergecast(tree, power, PARAMS)
        assert up_net.root_value == up_oracle.root_value
        assert up_net.slots == up_oracle.slots
        assert up_net.correct == up_oracle.correct
        assert up_net.retries == 0 and not up_net.degraded

        down_oracle = simulate_broadcast(tree, power, PARAMS)
        down_net = run_dissemination(tree, power, PARAMS)
        assert down_net.slots == down_oracle.slots
        assert down_net.reached == down_oracle.reached
        assert down_net.complete == down_oracle.complete

    def test_perfect_transport_default(self):
        """No plan, or a faultless plan, resolves to the perfect transport."""
        builder = NetDistrCapBuilder(PARAMS, plan=FaultPlan(seed=1))
        assert isinstance(builder._make_transport(), PerfectTransport)


class TestDegradationContract:
    def test_crashed_subtree_reported_never_silent(self):
        built = _built(48, 23)
        victim = min(built.tree.children_map()[built.tree.root_id])
        plan = FaultPlan(seed=23, crashes=CrashSchedule((CrashWindow(victim, 0),)))
        result = run_convergecast(built.tree, built.power, PARAMS, plan=plan, quorum=0.5)
        subtree = built.tree.subtree_nodes(victim)
        assert victim in result.missing_subtrees
        assert result.degraded and not result.correct
        assert result.contributing == frozenset(built.tree.nodes) - subtree
        assert result.quorum_met == (
            len(result.contributing) >= 0.5 * len(built.tree.nodes)
        )

    def test_lossy_aggregation_terminates_and_recovers(self):
        built = _built(48, 31)
        plan = FaultPlan(seed=31, drop_prob=0.25)
        result = run_convergecast(built.tree, built.power, PARAMS, plan=plan)
        assert result.retries > 0
        assert result.correct  # retries bought back every drop
        repeat = run_convergecast(built.tree, built.power, PARAMS, plan=plan)
        assert repeat.fault_digest == result.fault_digest
        assert repeat.root_value == result.root_value

    def test_lossy_dissemination_reports_missing(self):
        built = _built(32, 13)
        victim = min(built.tree.children_map()[built.tree.root_id])
        plan = FaultPlan(seed=13, crashes=CrashSchedule((CrashWindow(victim, 0),)))
        result = run_dissemination(built.tree, built.power, PARAMS, plan=plan, quorum=0.5)
        assert not result.complete
        assert victim in result.missing
        assert result.degraded
