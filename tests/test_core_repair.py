"""Tests for repro.core.repair (node-failure repair, the dynamic extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import DEFAULT_CONSTANTS
from repro.core import InitialTreeBuilder, TreeRepairer
from repro.core.quantities import num_rounds_for_delta
from repro.exceptions import ProtocolError
from repro.geometry import Node, Point, uniform_random
from repro.sinr import SINRParameters
from repro.state import NetworkState


@pytest.fixture(scope="module")
def built_tree():
    params = SINRParameters()
    rng = np.random.default_rng(101)
    nodes = uniform_random(40, rng)
    outcome = InitialTreeBuilder(params).build(nodes, rng)
    return params, nodes, outcome


class _RecordingBuilder(InitialTreeBuilder):
    """The default patch builder, keeping each result for inspection."""

    def __init__(self, params):
        super().__init__(params)
        self.results = []

    def build(self, nodes, rng, **kwargs):
        result = super().build(nodes, rng, **kwargs)
        self.results.append(result)
        return result


def _sweep_slots(result):
    """Slots of one full Init sweep over ``result``'s nodes (its first sweep)."""
    if len(result.nodes) < 2:
        return 0
    pairs = DEFAULT_CONSTANTS.slot_pairs_per_round(len(result.nodes))
    return num_rounds_for_delta(max(result.delta, 1.0)) * 2 * pairs


def _leaves(tree):
    children_of = set(tree.parent.values())
    return [node_id for node_id in tree.nodes if node_id not in children_of and node_id != tree.root_id]


class TestTreeRepairer:
    def test_repair_after_internal_failures_restores_spanning_tree(self, built_tree, rng):
        params, _, outcome = built_tree
        parents = outcome.tree.children_map()
        internal = [
            node_id
            for node_id in outcome.tree.nodes
            if node_id in parents and node_id != outcome.tree.root_id
        ][:3]
        result = TreeRepairer(params).repair(outcome.tree, outcome.power, internal, rng)
        result.tree.validate()
        assert result.tree.is_strongly_connected()
        assert set(result.tree.nodes) == set(outcome.tree.nodes) - set(internal)
        assert result.slots_used > 0
        assert result.reattached

    def test_leaf_failures_need_no_repair_slots(self, built_tree, rng):
        params, _, outcome = built_tree
        leaves = _leaves(outcome.tree)[:3]
        result = TreeRepairer(params).repair(outcome.tree, outcome.power, leaves, rng)
        assert result.slots_used == 0
        assert result.reattached == frozenset()
        assert result.tree.is_strongly_connected()
        assert not result.root_changed

    def test_root_failure_elects_new_root(self, built_tree, rng):
        params, _, outcome = built_tree
        result = TreeRepairer(params).repair(
            outcome.tree, outcome.power, [outcome.tree.root_id], rng
        )
        assert result.root_changed
        assert result.tree.root_id != outcome.tree.root_id
        assert result.tree.is_strongly_connected()

    def test_new_slot_groups_are_feasible(self, built_tree, rng):
        params, _, outcome = built_tree
        parents = outcome.tree.children_map()
        internal = [
            node_id
            for node_id in outcome.tree.nodes
            if node_id in parents and node_id != outcome.tree.root_id
        ][:2]
        result = TreeRepairer(params).repair(outcome.tree, outcome.power, internal, rng)
        old_span = outcome.tree.aggregation_schedule.span
        schedule = result.tree.aggregation_schedule
        new_slots = [slot for slot in schedule.used_slots() if slot > old_span]
        assert new_slots, "repair should add fresh slots"
        for slot in new_slots:
            group = schedule.links_in_slot(slot)
            from repro.sinr import is_feasible

            assert is_feasible(list(group), result.power, params)

    def test_repair_cost_smaller_than_rebuild(self, built_tree, rng):
        params, nodes, outcome = built_tree
        parents = outcome.tree.children_map()
        internal = [
            node_id
            for node_id in outcome.tree.nodes
            if node_id in parents and node_id != outcome.tree.root_id
        ][:2]
        result = TreeRepairer(params).repair(outcome.tree, outcome.power, internal, rng)
        assert result.slots_used < outcome.slots_used

    def test_unknown_failure_id_rejected(self, built_tree, rng):
        params, _, outcome = built_tree
        with pytest.raises(ProtocolError):
            TreeRepairer(params).repair(outcome.tree, outcome.power, [10**9], rng)

    def test_total_failure_rejected(self, built_tree, rng):
        params, _, outcome = built_tree
        with pytest.raises(ProtocolError):
            TreeRepairer(params).repair(outcome.tree, outcome.power, list(outcome.tree.nodes), rng)

    def test_integrate_splices_shared_state(self, built_tree, rng):
        params, _, outcome = built_tree
        tree_nodes = list(outcome.tree.nodes.values())
        state = NetworkState(tree_nodes)
        state.distance_matrix()
        victims = _leaves(outcome.tree)[:2]
        arrival = Node(id=max(outcome.tree.nodes) + 1, position=Point(3.0, 4.0))
        result = TreeRepairer(params).integrate(
            outcome.tree, outcome.power, failed_ids=victims, arrivals=[arrival],
            rng=rng, state=state,
        )
        assert set(int(i) for i in state.ids[state.live_slots()]) == set(result.tree.nodes)
        # The surviving block is still bitwise equal to a fresh rebuild.
        live = state.live_slots()
        fresh = NetworkState([state.node_at(s) for s in live.tolist()])
        assert np.array_equal(
            state.distance_matrix()[np.ix_(live, live)], fresh.distance_matrix()
        )

    def test_integrate_validates_state_before_mutating(self, built_tree, rng):
        """A bad splice target fails up front, leaving the state untouched."""
        params, _, outcome = built_tree
        tree_nodes = list(outcome.tree.nodes.values())
        victims = _leaves(outcome.tree)[:1]
        arrival_id = max(outcome.tree.nodes) + 1

        # Arrival id free in the tree but already live in the wider state.
        squatter = Node(id=arrival_id, position=Point(99.0, 99.0))
        state = NetworkState(tree_nodes + [squatter])
        before = len(state)
        with pytest.raises(ProtocolError):
            TreeRepairer(params).integrate(
                outcome.tree, outcome.power, failed_ids=victims,
                arrivals=[Node(id=arrival_id, position=Point(1.0, 2.0))],
                rng=rng, state=state,
            )
        assert len(state) == before and victims[0] in state

        # Failed id known to the tree but absent from the state.
        partial = NetworkState([n for n in tree_nodes if n.id != victims[0]])
        with pytest.raises(ProtocolError):
            TreeRepairer(params).integrate(
                outcome.tree, outcome.power, failed_ids=victims, rng=rng, state=partial,
            )


class TestMultiRoundChurnProperties:
    """Property-style checks of repair under randomized sustained churn.

    Every round kills a random subset of the current tree and repairs; the
    invariants must hold after *every* round, not just one repair from a
    pristine tree: survivors stay strongly connected, every newly formed slot
    group is SINR-feasible under the recorded powers, and the repair cost is
    bounded by the damage (an Init re-run among the affected subtree roots),
    not the network size.
    """

    ROUNDS = 4
    KILLS_PER_ROUND = 3

    def _churn_rounds(self, built_tree, seed, patch_builder=None):
        params, _, outcome = built_tree
        repairer = TreeRepairer(params, patch_builder=patch_builder)
        rng = np.random.default_rng(seed)
        tree, power = outcome.tree, outcome.power
        history = []
        for _ in range(self.ROUNDS):
            victims_pool = [n for n in tree.nodes if n != tree.root_id]
            kills = min(self.KILLS_PER_ROUND, len(victims_pool) - 1)
            victims = [int(v) for v in rng.choice(victims_pool, size=kills, replace=False)]
            old_span = tree.aggregation_schedule.span
            result = repairer.repair(tree, power, victims, rng)
            history.append((result, old_span, set(tree.nodes) - set(victims)))
            tree, power = result.tree, result.power
        return params, history

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_survivors_always_strongly_connected(self, built_tree, seed):
        _, history = self._churn_rounds(built_tree, seed)
        for result, _, expected_survivors in history:
            result.tree.validate()
            assert result.tree.is_strongly_connected()
            assert set(result.tree.nodes) == expected_survivors

    @pytest.mark.parametrize("seed", [71, 72])
    def test_repaired_slot_groups_feasible_under_recorded_powers(self, built_tree, seed):
        from repro.sinr import is_feasible

        params, history = self._churn_rounds(built_tree, seed)
        for result, old_span, _ in history:
            schedule = result.tree.aggregation_schedule
            for slot in schedule.used_slots():
                if slot > old_span:
                    group = list(schedule.links_in_slot(slot))
                    assert is_feasible(group, result.power, params)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_repair_cost_bounded_by_damage_not_network_size(self, built_tree, seed):
        """Each round's cost matches an Init over the affected nodes only."""
        params = built_tree[0]
        patches = _RecordingBuilder(params)
        _, history = self._churn_rounds(built_tree, seed, patches)
        patch_rng = np.random.default_rng(10_000 + seed)
        total_repair = 0
        total_rebuild = 0
        for result, _, survivors in history:
            # The patch's participants are some of the survivors, so a sweep
            # of it has no more rounds (a subset spans no farther) and no more
            # slot-pairs a round than a sweep over all survivors.  Sweeps are
            # random: a patch whose only usable round is its last can need
            # more of them than the rebuild does (about one round in ten), so
            # the per-round bound is per sweep and the aggregate is strict.
            assert result.reattached <= set(result.tree.nodes)
            if result.reattached:
                survivor_nodes = list(result.tree.nodes.values())
                rebuild = InitialTreeBuilder(params).build(survivor_nodes, patch_rng)
                patch = patches.results.pop(0)
                assert result.slots_used == patch.slots_used
                assert _sweep_slots(patch) <= _sweep_slots(rebuild) <= rebuild.slots_used
                assert result.slots_used <= patch.sweeps_used * _sweep_slots(rebuild)
                total_repair += result.slots_used
                total_rebuild += rebuild.slots_used
            else:
                assert result.slots_used == 0
        assert not patches.results
        if total_rebuild:
            assert total_repair < total_rebuild

    def test_power_fallback_chain_stays_flat_across_rounds(self, built_tree):
        """Round N's power resolves through one layer, not N chained ones."""
        params, _, outcome = built_tree
        repairer = TreeRepairer(params)
        rng = np.random.default_rng(99)
        tree, power = outcome.tree, outcome.power
        base_fallback = power.flattened()[1]
        for _ in range(self.ROUNDS):
            victims_pool = [n for n in tree.nodes if n != tree.root_id]
            victims = [int(v) for v in rng.choice(victims_pool, size=2, replace=False)]
            result = repairer.repair(tree, power, victims, rng)
            tree, power = result.tree, result.power
            # The fallback is the original oblivious assignment, never a
            # chained ExplicitPower, and failed nodes' powers are pruned.
            assert power.fallback is base_fallback
            assert not any(
                a in result.failed or b in result.failed for a, b in power.as_dict()
            )
