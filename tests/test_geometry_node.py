"""Tests for repro.geometry.node."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import (
    Node,
    Point,
    diameter,
    node_distance_matrix,
    nodes_from_points,
    nodes_to_array,
)
from repro.geometry import point as point_module


class TestNode:
    def test_coordinates_exposed(self):
        node = Node(id=3, position=Point(1.5, -2.0))
        assert node.x == pytest.approx(1.5)
        assert node.y == pytest.approx(-2.0)

    def test_distance_to(self):
        a = Node(0, Point(0, 0))
        b = Node(1, Point(0, 7))
        assert a.distance_to(b) == pytest.approx(7.0)

    def test_nodes_are_hashable(self):
        node = Node(0, Point(1, 1))
        assert node in {node}

    def test_ordering_by_id_then_position(self):
        a = Node(0, Point(5, 5))
        b = Node(1, Point(0, 0))
        assert a < b


class TestConstructors:
    def test_nodes_from_points_assigns_consecutive_ids(self):
        nodes = nodes_from_points([Point(0, 0), Point(1, 1)], start_id=10)
        assert [node.id for node in nodes] == [10, 11]
        assert nodes[1].position == Point(1, 1)

    def test_nodes_to_array(self):
        nodes = nodes_from_points([Point(0, 0), Point(2, 3)])
        arr = nodes_to_array(nodes)
        assert arr.shape == (2, 2)
        assert arr[1, 1] == pytest.approx(3.0)

    def test_node_distance_matrix(self):
        nodes = nodes_from_points([Point(0, 0), Point(0, 4)])
        matrix = node_distance_matrix(nodes)
        assert matrix[0, 1] == pytest.approx(4.0)
        assert np.allclose(matrix, matrix.T)


class TestDiameter:
    @pytest.mark.parametrize("count", [2, 3, 17, 64])
    @pytest.mark.parametrize("block_pairs", [1, 50, 1 << 18])
    def test_bitwise_equal_to_matrix_max(self, count, block_pairs, monkeypatch):
        monkeypatch.setattr(point_module, "_DIAMETER_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(count)
        nodes = nodes_from_points(
            [Point(float(x), float(y)) for x, y in rng.uniform(-1e3, 1e3, size=(count, 2))]
        )
        assert diameter(nodes) == float(node_distance_matrix(nodes).max())

    def test_fewer_than_two_nodes(self):
        assert diameter([]) == 0.0
        assert diameter([Node(0, Point(3, 4))]) == 0.0

    def test_nan_coordinate_propagates(self):
        nodes = nodes_from_points([Point(0, 0), Point(float("nan"), 1), Point(5, 5)])
        assert np.isnan(diameter(nodes))
