"""Preallocated scratch arenas for the decode hot paths.

Every slot of a simulation used to allocate the same handful of temporaries:
the gathered attenuation block, the received-power matrix, the per-listener
total/argmax/SINR vectors and the boolean decode masks.  At production slot
rates the allocator, not the arithmetic, becomes the bottleneck - the arrays
are small enough that ``malloc``/``free`` and ufunc dispatch dominate.

A :class:`DecodeWorkspace` removes that: it owns a set of named, capacity-
grown buffer pools, and the decode kernels (``repro.sinr.channel``, the
block accessors of ``repro.sinr.arrays`` and the affectance blocks of
``repro.sinr.positioned``) write into them via ``out=`` and
in-place ufuncs.  Results are **bit-for-bit identical** to the allocating
paths - the same elementwise operations run in the same order, only the
destination memory is reused - and the parity tests pin that.

Usage contract:

* A workspace is **not** thread-safe and is owned by one slot loop (one
  ``Simulator``, one schedule replay, one ``Distr-Cap`` run).
* Arrays returned by workspace-backed kernels are *views into the arena*:
  they are valid until the next kernel call that uses the same workspace.
  Callers that keep results across slots must copy them first (the slot
  engines consume them immediately, so the hot paths never copy).
* Buffers grow geometrically and never shrink; a workspace reused across
  slots of varying shape settles at the high-water mark and stops
  allocating entirely.
"""

from __future__ import annotations

import math

import numpy as np

from ..contracts import hot_kernel

__all__ = ["DecodeWorkspace"]


class DecodeWorkspace:
    """Arena of named, capacity-grown scratch buffers for decode kernels.

    Buffers are requested by ``(key, shape)``; the same key always returns
    memory carved from the same flat pool, reshaped to the requested shape.
    Distinct keys must be used for buffers that are live simultaneously
    (the kernels in this repo follow a fixed key schema, e.g.
    ``"decode.received"``, ``"cache.rows"``), and every returned array is
    C-contiguous - which is what lets the kernels chain ``out=`` operations
    and flat-index gathers on it.

    Requests are memoized per key: a slot loop asking for the same shapes
    every slot (the steady state) costs one dictionary hit per buffer, no
    allocation and no reshape.
    """

    __slots__ = ("_pools", "_views", "allocations")

    def __init__(self) -> None:
        self._pools: dict[str, np.ndarray] = {}
        self._views: dict[str, tuple[tuple[int, ...], str, np.ndarray]] = {}
        #: Number of pool (re)allocations performed; a workspace that has
        #: reached its high-water mark stops incrementing this.
        self.allocations = 0

    @hot_kernel(allocates=True)
    def _buffer(self, key: str, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        memo = self._views.get(key)
        if memo is not None and memo[0] == shape and memo[1] == dtype:
            return memo[2]
        size = math.prod(shape) if shape else 1
        pool = self._pools.get(key)
        if pool is None or pool.size < size or pool.dtype != dtype:
            grown = size if pool is None else max(size, 2 * pool.size)
            pool = np.empty(grown, dtype=dtype)
            self._pools[key] = pool
            self.allocations += 1
        view = pool[:size].reshape(shape)
        self._views[key] = (shape, dtype, view)
        return view

    def floats(self, key: str, *shape: int) -> np.ndarray:
        """C-contiguous float64 buffer of the given shape, carved from ``key``'s pool."""
        return self._buffer(key, "float64", shape)

    def ints(self, key: str, *shape: int) -> np.ndarray:
        """C-contiguous ``intp`` buffer (the dtype argmax and gathers need)."""
        return self._buffer(key, "intp", shape)

    def bools(self, key: str, *shape: int) -> np.ndarray:
        """C-contiguous boolean buffer of the given shape."""
        return self._buffer(key, "bool", shape)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena's pools."""
        return sum(pool.nbytes for pool in self._pools.values())
