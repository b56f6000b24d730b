"""The degree-bounded sparse subset ``T(M)`` (Theorem 13).

``M`` is the set of nodes whose degree in the tree ``T`` is at most a constant
``rho``; ``T(M)`` is the set of tree links with both endpoints in ``M``.  The
theorem shows ``T(M)`` is O(1)-sparse and contains a constant fraction of the
tree's links in expectation - the property that lets each ``TreeViaCapacity``
iteration make constant-factor progress.

Computing ``T(M)`` is local: every node knows its own degree (it stored its
links), tells its neighbours over the existing tree, and each link decides
whether it belongs to ``T(M)`` from its two endpoints' degrees.  Here the
computation is performed directly on the link set (:func:`degree_bounded_subset`)
or, for a tree held as a parent array, as one mask over its links
(:func:`degree_bounded_mask`); the one-sweep message cost is accounted for by
the callers (it is O(schedule length of T)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..links import LinkSet

__all__ = ["DegreeBoundedSubset", "degree_bounded_mask", "degree_bounded_subset"]


@dataclass(frozen=True)
class DegreeBoundedSubset:
    """The subset ``T(M)`` together with bookkeeping for the analysis.

    Attributes:
        subset: the links of ``T(M)``.
        low_degree_nodes: ids of the nodes in ``M``.
        rho: the degree threshold used.
        fraction: ``|T(M)| / |T|`` (0 when the tree is empty).
    """

    subset: LinkSet
    low_degree_nodes: frozenset[int]
    rho: int
    fraction: float


def degree_bounded_subset(tree_links: LinkSet, rho: int) -> DegreeBoundedSubset:
    """Compute ``T(M)`` for a tree link set and a degree threshold ``rho``.

    Args:
        tree_links: the (aggregation) links of the tree ``T``.
        rho: the degree cap defining ``M`` (the paper's ``rho = 160 / p**2``;
            practical runs use a small constant).

    Raises:
        ValueError: if ``rho`` is not positive.
    """
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    degrees = tree_links.degrees()
    low_degree = frozenset(node_id for node_id, degree in degrees.items() if degree <= rho)
    subset = tree_links.filtered(
        lambda link: link.sender.id in low_degree and link.receiver.id in low_degree
    )
    fraction = len(subset) / len(tree_links) if len(tree_links) else 0.0
    return DegreeBoundedSubset(
        subset=subset, low_degree_nodes=low_degree, rho=rho, fraction=fraction
    )


def degree_bounded_mask(children: np.ndarray, parents: np.ndarray, n: int, rho: int) -> np.ndarray:
    """``T(M)`` of a tree given by its links' endpoint positions, as a mask.

    Link ``k`` runs from position ``children[k]`` to ``parents[k]`` (both
    below ``n``); it is in ``T(M)`` when both endpoints have tree degree at
    most ``rho``.

    Raises:
        ValueError: if ``rho`` is not positive.
    """
    if rho < 1:
        raise ValueError("rho must be a positive integer")
    low = np.bincount(children, minlength=n) + np.bincount(parents, minlength=n) <= rho
    return low[children] & low[parents]
