"""Tests for repro.analysis.validation and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    format_markdown_table,
    format_table,
    format_value,
    validate_bitree,
    validate_connectivity_solution,
)
from repro.core import InitialTreeBuilder, Schedule, BiTree
from repro.exceptions import ScheduleError
from repro.geometry import uniform_random
from repro.links import Link
from repro.sinr import SINRParameters, UniformPower

from .conftest import make_node


@pytest.fixture(scope="module")
def valid_solution():
    params = SINRParameters()
    rng = np.random.default_rng(17)
    nodes = uniform_random(30, rng)
    outcome = InitialTreeBuilder(params).build(nodes, rng)
    return params, nodes, outcome


class TestValidateBitree:
    def test_valid_solution_passes(self, valid_solution):
        params, nodes, outcome = valid_solution
        report = validate_bitree(outcome.tree, nodes, outcome.power, params)
        assert report.ok
        assert report.issues == ()

    def test_underpowered_schedule_flagged(self, valid_solution):
        params, nodes, outcome = valid_solution
        report = validate_bitree(outcome.tree, nodes, UniformPower(1e-9), params)
        assert not report.ok
        assert not report.schedule_feasible
        assert any("infeasible" in issue for issue in report.issues)

    def test_wrong_node_set_flagged(self, valid_solution):
        params, nodes, outcome = valid_solution
        extra = list(nodes) + [make_node(10**6, 1e6, 1e6)]
        report = validate_bitree(outcome.tree, extra, outcome.power, params)
        assert not report.spanning

    def test_ordering_violation_flagged(self, params):
        nodes = [make_node(i, 5.0 * i, 0.0) for i in range(3)]
        tree = BiTree.from_parent_map(nodes, 2, {0: 1, 1: 2}, slots={0: 5, 1: 1})
        power = UniformPower.for_max_length(params, 5.0)
        report = validate_bitree(tree, nodes, power, params)
        assert not report.aggregation_order

    def test_dangling_parent_reported(self, params):
        nodes = [make_node(i, 2.0 * i, 0.0) for i in range(4)]
        tree = BiTree(
            nodes={node.id: node for node in nodes},
            root_id=3,
            parent={0: 1, 1: 2, 2: 99},
            aggregation_schedule=Schedule({Link(nodes[0], nodes[1]): 0, Link(nodes[1], nodes[2]): 1}),
        )
        power = UniformPower.for_max_length(params, 2.0)
        report = validate_bitree(tree, nodes, power, params, check_latency=False)
        assert not report.spanning
        assert not report.aggregation_order
        assert any(issue.startswith("ordering:") for issue in report.issues)

    def test_raise_wrapper(self, valid_solution):
        params, nodes, outcome = valid_solution
        validate_connectivity_solution(outcome.tree, nodes, outcome.power, params)
        with pytest.raises(ScheduleError):
            validate_connectivity_solution(outcome.tree, nodes, UniformPower(1e-9), params)

    def test_latency_checks_can_be_skipped(self, valid_solution):
        params, nodes, outcome = valid_solution
        report = validate_bitree(
            outcome.tree, nodes, outcome.power, params, check_latency=False
        )
        assert report.convergecast_ok and report.broadcast_ok


class TestReporting:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.14"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value("text") == "text"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 222, "b": "z"}]
        table = format_table(rows, title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_markdown_table(self):
        rows = [{"x": 1, "y": 2}]
        markdown = format_markdown_table(rows)
        assert markdown.splitlines()[0] == "| x | y |"
        assert "| 1 | 2 |" in markdown

    def test_missing_columns_filled_blank(self):
        rows = [{"a": 1}, {"b": 2}]
        table = format_table(rows)
        assert "a" in table and "b" in table
