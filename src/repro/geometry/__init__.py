"""Planar geometry substrate: points, nodes, regions, deployments."""

from typing import Any

from .._lazy import LazyExports

_EXPORTS = LazyExports(__name__, {
    "point": (
        "Point", "distance", "distance_matrix", "distance_ratio", "max_pairwise_distance",
        "min_pairwise_distance", "points_to_array",
    ),
    "node": ("Node", "nodes_from_points", "nodes_to_array", "node_distance_matrix", "diameter"),
    "region": ("Region", "Rectangle", "Disc", "bounding_rectangle"),
    "spatial_index": ("GridIndex",),
    "deployment": (
        "uniform_random", "grid", "clustered", "two_scale", "exponential_chain", "linear_chain",
        "deployment_by_name", "validate_deployment", "DEPLOYMENT_GENERATORS",
    ),
})
__all__ = _EXPORTS.names


def __getattr__(name: str) -> Any:
    return _EXPORTS.resolve(name)


def __dir__() -> list[str]:
    return _EXPORTS.dir(globals())
