"""Typed ndarray aliases shared by the public APIs of ``state/`` and ``sinr/``.

``np.ndarray`` in a signature says nothing about what the hot-path contracts
actually promise — dtype and (by convention) shape.  These aliases carry the
dtype in the type and document the shape conventions once, so a signature
like ``def decode(...) -> tuple[IntpArray, FloatArray, BoolArray]`` is
self-describing and mypy-checkable.

Shape conventions (by alias, as used across the kernels):

* ``FloatArray`` — float64 data: coordinates ``(n, 2)``, matrices ``(n, n)``
  or ``(ntx, nrx)``, per-listener vectors ``(nrx,)``.
* ``IntpArray`` — ``np.intp`` index vectors (slot indices, argmax results);
  the dtype numpy's take/argmax kernels require.
* ``IdArray``  — ``int64`` node-id vectors; the dtype the SplitMix64 fade
  hashes consume.
* ``BoolArray`` — boolean masks (decode success, colocation, membership).
* ``DecodeTriple`` — the ``(best, sinr, ok)`` result of every decode kernel:
  per listener, the strongest transmitter's row index, its SINR, and whether
  it clears ``beta``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "BoolArray",
    "DecodeTriple",
    "FloatArray",
    "IdArray",
    "IntpArray",
]

FloatArray = NDArray[np.float64]
IntpArray = NDArray[np.intp]
IdArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]

#: ``(best, sinr, ok)`` — the result triple of every decode kernel.
DecodeTriple = tuple[IntpArray, FloatArray, BoolArray]
