"""Tests for repro.baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    CentralizedMSTBaseline,
    UniformScheduler,
    euclidean_mst_tree,
    naive_tdma_schedule,
)
from repro.baselines.centralized_mst import ordered_first_fit_schedule
from repro.exceptions import ProtocolError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_deployment
from repro.geometry import grid, uniform_random
from repro.links import Link, LinkSet, sparsity

from .conftest import make_node
from .oracles import ordered_first_fit_reference


class TestEuclideanMST:
    def test_spans_all_nodes(self, rng):
        nodes = uniform_random(30, rng)
        tree = euclidean_mst_tree(nodes)
        tree.validate()
        assert set(tree.nodes) == {node.id for node in nodes}
        assert tree.is_strongly_connected()

    def test_mst_total_length_minimal_on_chain(self):
        nodes = [make_node(i, float(i), 0.0) for i in range(6)]
        tree = euclidean_mst_tree(nodes)
        assert sum(link.length for link in tree.aggregation_links()) == pytest.approx(5.0)

    def test_mst_is_constant_sparse(self, rng):
        nodes = uniform_random(40, rng)
        tree = euclidean_mst_tree(nodes)
        assert sparsity(tree.aggregation_links()).psi <= 8

    def test_custom_root(self, rng):
        nodes = grid(9, spacing=2.0)
        tree = euclidean_mst_tree(nodes, root_id=nodes[4].id)
        assert tree.root_id == nodes[4].id

    def test_aggregation_order_valid(self, rng):
        nodes = uniform_random(20, rng)
        euclidean_mst_tree(nodes).validate_aggregation_order()

    def test_single_node_and_errors(self):
        only = make_node(0, 0, 0)
        assert euclidean_mst_tree([only]).size == 1
        with pytest.raises(ProtocolError):
            euclidean_mst_tree([])
        with pytest.raises(ProtocolError):
            euclidean_mst_tree([only], root_id=5)


class TestCentralizedBaseline:
    def test_schedule_is_feasible(self, params, rng):
        nodes = uniform_random(30, rng)
        result = CentralizedMSTBaseline(params, power_scheme="mean").build(nodes)
        assert result.schedule.is_feasible(result.power, params)
        result.schedule.validate_covers(result.tree.aggregation_links())

    def test_schedule_much_shorter_than_tdma(self, params, rng):
        nodes = uniform_random(40, rng)
        result = CentralizedMSTBaseline(params).build(nodes)
        assert result.schedule_length < len(nodes) - 1

    def test_all_power_schemes_work(self, params, rng):
        nodes = grid(16, spacing=2.0)
        for scheme in ("mean", "linear", "uniform"):
            result = CentralizedMSTBaseline(params, power_scheme=scheme).build(nodes)
            assert result.schedule.is_feasible(result.power, params)
            assert result.power_scheme == scheme

    def test_unknown_scheme_rejected(self, params):
        with pytest.raises(ValueError):
            CentralizedMSTBaseline(params, power_scheme="bogus")

    def test_single_node(self, params):
        result = CentralizedMSTBaseline(params).build([make_node(0, 0, 0)])
        assert result.schedule_length == 0

    @pytest.mark.parametrize("scheme", ["mean", "linear", "uniform"])
    @pytest.mark.parametrize("n,seed", [(24, 1), (48, 1), (32, 1), (32, 2), (64, 1), (64, 2), (128, 1), (128, 2)])
    def test_ordered_first_fit_matches_the_per_test_matrix_loop(self, n, seed, scheme):
        """F1's centralized-MST cells (quick and default sizes and seeds):
        the accumulator schedule is the seed loop's, slot for slot."""
        config = ExperimentConfig()
        baseline = CentralizedMSTBaseline(config.params, power_scheme=scheme)
        tree = euclidean_mst_tree(make_deployment(config, n, seed))
        power = baseline._power_for(tree.aggregation_links())
        got = ordered_first_fit_schedule(tree, power, config.params)
        expected = ordered_first_fit_reference(tree, power, config.params)
        assert dict(got.items()) == dict(expected.items())
        assert got.length == expected.length


class TestUniformScheduler:
    def test_covers_and_feasible(self, params, chain_links):
        result = UniformScheduler(params).schedule(chain_links)
        result.schedule.validate_covers(chain_links)
        assert result.schedule.is_feasible(result.power, params)

    def test_explicit_level_respected(self, params, chain_links):
        level = params.min_power_for(4.0)
        result = UniformScheduler(params, level=level).schedule(chain_links)
        assert result.power.power(chain_links[0]) == level

    def test_empty_input(self, params):
        result = UniformScheduler(params).schedule(LinkSet())
        assert result.schedule_length == 0

    def test_uniform_power_struggles_with_mixed_lengths(self, params):
        # A long link next to short links forces uniform power into many slots.
        nodes = [make_node(0, 0, 0), make_node(1, 50, 0), make_node(2, 2, 0), make_node(3, 3, 0)]
        links = LinkSet([Link(nodes[0], nodes[1]), Link(nodes[2], nodes[3])])
        result = UniformScheduler(params).schedule(links)
        assert result.schedule_length == 2


class TestNaiveTdma:
    def test_one_slot_per_link(self, params, chain_links):
        result = naive_tdma_schedule(chain_links, params)
        assert result.schedule_length == len(chain_links)
        assert result.schedule.is_feasible(result.power, params)

    def test_ordering_shortest_first(self, params):
        nodes = [make_node(0, 0, 0), make_node(1, 5, 0), make_node(2, 100, 0), make_node(3, 101, 0)]
        links = LinkSet([Link(nodes[0], nodes[1]), Link(nodes[2], nodes[3])])
        result = naive_tdma_schedule(links, params)
        assert result.schedule.slot_of(links[1]) == 0  # the unit link goes first
