"""The one randomness model: counter-hashed coins.

Every random decision of a protocol, a fade or a fault is a pure function of
``(stream tag, seed, ids, counter)`` folded through SplitMix64, never a draw
from a shared stream: a coin with heads probability ``p`` is
``_hash_u64(stream, seed, *ids, counter) < _uniform_cut(p)``.  The same
question gets the same answer in any order, on any subset of the nodes and in
any worker.  Each module keeps its own stream tags, so equal seeds never
correlate two kinds of decision.  A protocol call reads one seed word from
the generator it is passed (:func:`seed_word`); fades and faults carry their
seed in their configuration.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["seed_word"]

# SplitMix64 mixing constants (Steele, Lea & Flood 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def seed_word(rng: np.random.Generator) -> int:
    """The seed of one protocol call's coins: one 64-bit word from ``rng``."""
    return int(rng.integers(1 << 64, dtype=np.uint64))


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche mix on uint64 values.

    All arithmetic wraps modulo 2**64 by design.
    """
    x = x + _GAMMA
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _hash_u64(*components: np.ndarray | int) -> np.ndarray:
    """Combine integer components (scalars or broadcastable arrays) to uint64.

    The leading scalar components fold in Python ints (:func:`_hash_int`),
    the rest in NumPy (:func:`_hash_from`); the value is the same.
    """
    lead = 0
    while lead < len(components) and isinstance(components[lead], (int, np.integer)):
        lead += 1
    return _hash_from(np.uint64(_hash_int(*components[:lead])), *components[lead:])


def _hash_from(h: np.ndarray, *components: np.ndarray | int) -> np.ndarray:
    """Continue the :func:`_hash_u64` fold from ``h``, the hash of the
    components before these: ``_hash_from(_hash_u64(a, b), c)`` equals
    ``_hash_u64(a, b, c)``."""
    with np.errstate(over="ignore"):
        for component in components:
            h = _mix(h ^ np.asarray(component).astype(np.uint64))
    return h


def _word(component: int) -> int:
    """One scalar hash component as the uint64 word the fold XORs in, as a
    Python int: NumPy's conversion, so a negative value becomes its two's
    complement and one outside ``[-2**63, 2**64)`` raises ``OverflowError``."""
    value = int(component)
    if not -(1 << 63) <= value <= _MASK64:
        raise OverflowError(f"hash component {value} does not fit in 64 bits")
    return value & _MASK64


def _hash_int(*components: int) -> int:
    """:func:`_hash_u64` of scalar components, in Python int arithmetic.

    Each component wraps to uint64 through :func:`_word`, as NumPy converts
    it.  On scalars it is a few times cheaper than NumPy's scalar
    arithmetic, which pays a ufunc dispatch per operation.
    """
    h = 0
    for component in components:
        x = (h ^ _word(component)) + 0x9E3779B97F4A7C15 & _MASK64
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
        h = x ^ (x >> 31)
    return h


def _uniform_open(h: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniforms in the half-open interval (0, 1]."""
    return ((h >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)


def _uniform_cut(prob: float) -> np.uint64:
    """The hash bound ``c`` with ``_uniform_open(h) < prob`` exactly when ``h < c``.

    :func:`_uniform_open` is ``((h >> 11) + 1) * 2**-53``, exact in float64,
    so for ``prob`` in ``[0, 1]`` the draw is below ``prob`` for the integers
    ``h >> 11 < ceil(prob * 2**53) - 1`` (``prob * 2**53`` is exact too): one
    integer comparison replaces the four operations of the float draw.
    """
    cut = max(math.ceil(prob * 2.0**53) - 1, 0)
    return np.uint64(cut << 11)
