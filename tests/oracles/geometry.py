"""The blocked all-pairs diameter scan (oracle of ``repro.geometry.diameter``)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.geometry import Node, nodes_to_array


def diameter_reference(nodes: Sequence[Node], block_pairs: int = 1 << 18) -> float:
    """Largest pairwise distance by scanning every ordered pair in row blocks.

    Each block runs the distance matrix's ``hypot`` expression, and
    ``np.max`` over the block maxima propagates a NaN coordinate as the full
    matrix would.  ``0.0`` for fewer than two nodes.
    """
    xy = nodes_to_array(nodes)
    n = xy.shape[0]
    rows = max(1, block_pairs // max(n, 1))
    block_maxima = []
    for start in range(0, n, rows):
        diff = xy[start : start + rows, None, :] - xy[None, :, :]
        block_maxima.append(np.hypot(diff[..., 0], diff[..., 1]).max())
    return float(np.max(block_maxima)) if block_maxima else 0.0
