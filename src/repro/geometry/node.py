"""Wireless nodes.

A :class:`Node` is a point in the plane plus a globally unique identifier, as
assumed by the paper's model (Section 3): every node knows its own location
and ID, and a single message is large enough to carry both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .point import Point, distance_matrix, points_to_array

__all__ = ["Node", "diameter", "nodes_from_points", "node_distance_matrix", "nodes_to_array"]

#: Pairs evaluated per block by :func:`diameter`, bounding its scratch memory.
_DIAMETER_BLOCK_PAIRS = 1 << 18


@dataclass(frozen=True, order=True)
class Node:
    """A wireless node with a unique id and a fixed planar position."""

    id: int
    position: Point

    @property
    def x(self) -> float:
        """X coordinate of the node's position."""
        return self.position.x

    @property
    def y(self) -> float:
        """Y coordinate of the node's position."""
        return self.position.y

    def distance_to(self, other: "Node") -> float:
        """Euclidean distance to another node."""
        return self.position.distance_to(other.position)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(id={self.id}, x={self.x:.3f}, y={self.y:.3f})"


def nodes_from_points(points: Iterable[Point], start_id: int = 0) -> list[Node]:
    """Wrap points into nodes with consecutive ids starting at ``start_id``."""
    return [Node(id=start_id + i, position=p) for i, p in enumerate(points)]


def nodes_to_array(nodes: Sequence[Node]):
    """Return an ``(n, 2)`` array of node coordinates."""
    return points_to_array(node.position for node in nodes)


def node_distance_matrix(nodes: Sequence[Node]):
    """Pairwise distance matrix between nodes, indexed by list position."""
    return distance_matrix([node.position for node in nodes])


def diameter(nodes: Sequence[Node]) -> float:
    """Largest pairwise distance between nodes (``0.0`` for fewer than two).

    Bitwise equal to ``node_distance_matrix(nodes).max()``: each block of
    rows runs the same ``hypot`` expression, and a maximum does not depend
    on evaluation order.  Scratch memory is O(n) instead of O(n^2).
    """
    xy = nodes_to_array(nodes)
    n = xy.shape[0]
    rows = max(1, _DIAMETER_BLOCK_PAIRS // max(n, 1))
    block_maxima = []
    for start in range(0, n, rows):
        diff = xy[start : start + rows, None, :] - xy[None, :, :]
        block_maxima.append(np.hypot(diff[..., 0], diff[..., 1]).max())
    # np.max, not the builtin: a NaN coordinate must propagate as it would
    # through the full matrix.
    return float(np.max(block_maxima)) if block_maxima else 0.0
