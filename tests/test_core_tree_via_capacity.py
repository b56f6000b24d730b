"""Tests for repro.core.tree_via_capacity and the connectivity facade (Thm 4)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.core import ConnectivityProtocol, TreeViaCapacity, init_tree, tree_via_capacity
from repro.exceptions import ConfigurationError, ProtocolError
from repro.geometry import Node, Point, grid, uniform_random
from repro.sinr import SINRParameters

from .conftest import make_node


@pytest.fixture(scope="module")
def tvc_outcomes():
    params = SINRParameters()
    rng = np.random.default_rng(33)
    nodes = uniform_random(40, rng)
    arbitrary = TreeViaCapacity(params, power_mode="arbitrary").build(nodes, rng)
    mean = TreeViaCapacity(params, power_mode="mean").build(nodes, rng)
    return params, nodes, arbitrary, mean


class TestTreeViaCapacityStructure:
    def test_spanning_and_connected(self, tvc_outcomes):
        _, nodes, arbitrary, mean = tvc_outcomes
        for outcome in (arbitrary, mean):
            outcome.tree.validate()
            assert set(outcome.tree.nodes) == {node.id for node in nodes}
            assert outcome.tree.is_strongly_connected()

    def test_aggregation_order(self, tvc_outcomes):
        _, _, arbitrary, mean = tvc_outcomes
        arbitrary.tree.validate_aggregation_order()
        mean.tree.validate_aggregation_order()

    def test_schedules_feasible(self, tvc_outcomes):
        params, _, arbitrary, mean = tvc_outcomes
        assert arbitrary.aggregation_feasible
        assert arbitrary.tree.aggregation_schedule.is_feasible(arbitrary.power, params)
        assert mean.aggregation_feasible
        assert mean.tree.aggregation_schedule.is_feasible(mean.power, params)

    def test_schedule_length_equals_iterations(self, tvc_outcomes):
        _, _, arbitrary, mean = tvc_outcomes
        assert arbitrary.schedule_length == len(arbitrary.iterations)
        assert mean.schedule_length == len(mean.iterations)

    def test_schedule_length_modest_multiple_of_log_n(self, tvc_outcomes):
        _, nodes, arbitrary, _ = tvc_outcomes
        assert arbitrary.schedule_length <= 8 * math.log2(len(nodes))

    def test_arbitrary_schedule_shorter_than_tdma(self, tvc_outcomes):
        _, nodes, arbitrary, _ = tvc_outcomes
        assert arbitrary.schedule_length < len(nodes) - 1

    def test_iteration_records_are_consistent(self, tvc_outcomes):
        _, nodes, arbitrary, _ = tvc_outcomes
        populations = [record.population for record in arbitrary.iterations]
        assert populations[0] == len(nodes)
        assert all(populations[i] > populations[i + 1] for i in range(len(populations) - 1))
        for record in arbitrary.iterations:
            assert 0 < record.selected_links <= record.tree_links
            assert 0.0 < record.progress_fraction <= 1.0

    def test_construction_slots_accumulated(self, tvc_outcomes):
        _, _, arbitrary, _ = tvc_outcomes
        assert arbitrary.construction_slots >= sum(r.init_slots for r in arbitrary.iterations)


class TestTreeViaCapacityEdgeCases:
    def test_single_node(self, params, rng):
        outcome = TreeViaCapacity(params).build([make_node(0, 0, 0)], rng)
        assert outcome.tree.size == 1
        assert outcome.schedule_length == 0

    def test_two_nodes(self, params, rng):
        nodes = [make_node(0, 0, 0), make_node(1, 2, 0)]
        outcome = TreeViaCapacity(params).build(nodes, rng)
        assert outcome.schedule_length == 1
        assert outcome.tree.is_strongly_connected()

    def test_empty_input_rejected(self, params, rng):
        with pytest.raises(ProtocolError):
            TreeViaCapacity(params).build([], rng)

    def test_invalid_power_mode(self, params):
        with pytest.raises(ValueError):
            TreeViaCapacity(params, power_mode="magic")  # type: ignore[arg-type]

    def test_iteration_cap_enforced(self, params, rng):
        nodes = grid(16, spacing=2.0)
        with pytest.raises(ProtocolError):
            TreeViaCapacity(params, max_iterations=1).build(nodes, rng)


class TestTreeViaCapacityInput:
    """Bad input is rejected at entry, as Init rejects it, before any geometry."""

    @pytest.fixture
    def no_geometry(self, monkeypatch):
        def refuse(nodes):
            raise AssertionError("geometry built before the input was validated")

        monkeypatch.setattr(tree_via_capacity.NetworkState, "for_nodes", staticmethod(refuse))

    def test_nan_single_node(self, params, rng):
        with pytest.raises(ConfigurationError, match="non-finite"):
            TreeViaCapacity(params).build([Node(0, Point(math.nan, 0.0))], rng)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coordinate_without_warning(self, params, rng, no_geometry, bad):
        nodes = uniform_random(6, np.random.default_rng(1)) + [Node(99, Point(bad, 1.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="non-finite"):
                TreeViaCapacity(params).build(nodes, rng)

    def test_coincident_nodes(self, params, rng, no_geometry):
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 4.0, 2.0), make_node(2, 4.0, 2.0)]
        with pytest.raises(ConfigurationError, match="share the position"):
            TreeViaCapacity(params).build(nodes, rng)

    def test_duplicate_ids(self, params, rng, no_geometry):
        nodes = [make_node(0, 0.0, 0.0), make_node(1, 4.0, 2.0), make_node(1, 8.0, 2.0)]
        with pytest.raises(ProtocolError, match="duplicate node ids"):
            TreeViaCapacity(params).build(nodes, rng)

    def test_input_validated_once_per_build(self, params, monkeypatch):
        # Every iteration's Init population is a subset of the validated
        # deployment, on the store gathered for it: Init skips both checks,
        # and the tree is the one Init's checked entry builds.
        nodes = uniform_random(60, np.random.default_rng(8))

        def outcome(result):
            return (
                result.tree.parent,
                sorted(result.power.as_dict().items()),
                result.iterations,
                result.construction_slots,
            )

        calls = []
        validate = init_tree.validate_init_nodes

        def counted(node_list):
            calls.append(len(node_list))
            return validate(node_list)

        monkeypatch.setattr(init_tree, "validate_init_nodes", counted)
        monkeypatch.setattr(tree_via_capacity, "validate_init_nodes", counted)
        trusted = TreeViaCapacity(params).build(nodes, np.random.default_rng(2))
        assert calls == [60]
        assert len(trusted.iterations) > 1

        build = init_tree.InitialTreeBuilder.build

        def checked(self, population, rng, *, state=None, _checked=False):
            return build(self, population, rng, state=state)

        monkeypatch.setattr(init_tree.InitialTreeBuilder, "build", checked)
        calls.clear()
        reference = TreeViaCapacity(params).build(nodes, np.random.default_rng(2))
        assert len(calls) == 1 + len(reference.iterations)
        assert outcome(trusted) == outcome(reference)


class TestConnectivityProtocolFacade:
    def test_full_pipeline(self, rng):
        params = SINRParameters()
        protocol = ConnectivityProtocol(params)
        nodes = grid(25, spacing=2.0)
        initial = protocol.build_initial_tree(nodes, rng)
        assert initial.tree.is_strongly_connected()
        rescheduled = protocol.reschedule_with_mean_power(initial, rng)
        assert rescheduled.schedule.is_feasible(rescheduled.power, params)
        efficient = protocol.build_efficient_tree(nodes, rng, power_mode="arbitrary")
        assert efficient.aggregation_feasible

    def test_default_parameters_constructed(self):
        protocol = ConnectivityProtocol()
        assert protocol.params.alpha > 2.0
