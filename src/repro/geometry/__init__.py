"""Planar geometry substrate: points, nodes, regions, deployments."""

from .deployment import (
    DEPLOYMENT_GENERATORS,
    clustered,
    deployment_by_name,
    exponential_chain,
    grid,
    linear_chain,
    two_scale,
    uniform_random,
    validate_deployment,
)
from .node import Node, diameter, node_distance_matrix, nodes_from_points, nodes_to_array
from .point import (
    Point,
    distance,
    distance_matrix,
    distance_ratio,
    max_pairwise_distance,
    min_pairwise_distance,
    points_to_array,
)
from .region import Disc, Rectangle, Region, bounding_rectangle
from .spatial_index import GridIndex

__all__ = [
    "Point",
    "Node",
    "Region",
    "Rectangle",
    "Disc",
    "bounding_rectangle",
    "GridIndex",
    "distance",
    "distance_matrix",
    "distance_ratio",
    "max_pairwise_distance",
    "min_pairwise_distance",
    "points_to_array",
    "nodes_from_points",
    "nodes_to_array",
    "node_distance_matrix",
    "diameter",
    "uniform_random",
    "grid",
    "clustered",
    "two_scale",
    "exponential_chain",
    "linear_chain",
    "deployment_by_name",
    "validate_deployment",
    "DEPLOYMENT_GENERATORS",
]
