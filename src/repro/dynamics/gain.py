"""Pluggable channel-gain models.

The SINR substrate's kernels historically hardcoded the deterministic path
loss ``P / d**alpha``.  This module generalizes that: a :class:`GainModel` is
a multiplicative *fade factor* ``F`` on received power, so the signal from
``u`` at ``v`` in slot ``t`` becomes ``P_u * F(u, v, t) / d(u, v)**alpha``.
A model plugs into the physical model through
``SINRParameters(gain_model=...)``; every kernel (the channel's decode
chain, the :class:`~repro.sinr.PositionedLinks` affectance/SINR/gain
matrices) consults it.

Two design rules keep the existing machinery intact:

* **Bit-for-bit deterministic default.**  ``gain_model=None`` and
  :class:`DeterministicPathLoss` both make every kernel take its original
  code path (no multiplications are applied at all), so results are
  bit-identical to the seed kernels - the parity tests pin this.
* **Stateless, counter-based randomness.**  Stochastic fades are pure
  functions of ``(model configuration, sender id, receiver id, slot)``
  computed with the vectorized SplitMix64 hash of :mod:`repro.coins`, not
  draws from a shared stream.  The same seed therefore yields the same fade regardless of query
  order, subset, decode path (index arrays vs node objects) or worker
  process - exactly the
  property the parallel experiment harness needs - and a fade matrix query
  costs O(|tx| * |rx|) with no per-universe state to invalidate when nodes
  move or churn.

Models compose multiplicatively via :class:`ComposedGain` (e.g. log-normal
shadowing on top of per-slot Rayleigh fading).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..coins import _hash_u64, _uniform_open
from ..exceptions import ConfigurationError

__all__ = [
    "GainModel",
    "DeterministicPathLoss",
    "LogNormalShadowing",
    "RayleighFading",
    "ComposedGain",
]


# Domain-separation tags so the shadowing and fading streams never collide
# even under identical seeds.
_SHADOW_STREAM = 0x5348414457
_RAYLEIGH_STREAM = 0x5241594C


class GainModel(ABC):
    """A multiplicative fade on received power, per ordered node pair and slot.

    Subclasses implement :meth:`_pair_fade` elementwise over broadcastable id
    arrays; :meth:`fade` and :meth:`fade_pairs` derive the outer-product and
    aligned-pair forms from it.  A return value of ``None`` means *unit gain
    everywhere* and tells callers to skip the multiplication entirely - this
    is how the deterministic model stays bit-for-bit identical to the
    hardcoded path loss.
    """

    #: Whether the model never perturbs the deterministic path loss.
    deterministic: bool = False
    #: Whether fades ignore the slot index (static shadowing yes, fast
    #: fading no).  Slot-invariant fades over a fixed node universe are
    #: cached by ``NodeArrayCache.fade_matrix`` and sliced per slot instead
    #: of being re-hashed on every decode.
    slot_invariant: bool = False

    @abstractmethod
    def _pair_fade(
        self, tx_ids: np.ndarray, rx_ids: np.ndarray, slot: int | None
    ) -> np.ndarray | None:
        """Elementwise fade for broadcastable (tx id, rx id) arrays."""

    def fade(
        self,
        tx_ids: np.ndarray,
        rx_ids: np.ndarray,
        slot: int | None = None,
    ) -> np.ndarray | None:
        """Fade matrix ``F[i, j]`` from transmitter ``tx_ids[i]`` to listener
        ``rx_ids[j]`` in ``slot`` (``None`` selects the slot-free draw that
        slotless contexts such as feasibility checks use)."""
        tx = np.asarray(tx_ids, dtype=np.int64)
        rx = np.asarray(rx_ids, dtype=np.int64)
        return self._pair_fade(tx[:, None], rx[None, :], slot)

    def fade_pairs(
        self,
        tx_ids: np.ndarray,
        rx_ids: np.ndarray,
        slot: int | None = None,
    ) -> np.ndarray | None:
        """Aligned per-pair fades: ``F[k]`` from ``tx_ids[k]`` to ``rx_ids[k]``."""
        tx = np.asarray(tx_ids, dtype=np.int64)
        rx = np.asarray(rx_ids, dtype=np.int64)
        return self._pair_fade(tx, rx, slot)


@dataclass(frozen=True)
class DeterministicPathLoss(GainModel):
    """The paper's deterministic ``P / d**alpha`` model, as an explicit object.

    Setting this is exactly equivalent to ``gain_model=None``: every kernel
    detects the unit fade and takes its original, unmodified code path, so
    results are bit-for-bit identical to the seed implementation.
    """

    deterministic = True
    slot_invariant = True

    def _pair_fade(self, tx_ids, rx_ids, slot):
        return None


@dataclass(frozen=True)
class LogNormalShadowing(GainModel):
    """Static log-normal shadowing: ``F = 10**(X / 10)``, ``X ~ N(0, sigma_db)``.

    The shadowing term models obstacles between a node pair, so it is
    symmetric (``F(u, v) = F(v, u)``, link reciprocity) and constant over
    time; ``slot`` is ignored.  Fades are pure functions of
    ``(seed, min(u, v), max(u, v))``.

    Args:
        sigma_db: standard deviation of the shadowing term in decibels
            (typical outdoor values: 4-12 dB).  Must be non-negative; 0 gives
            unit fades (but still exercises the stochastic code path).
        seed: stream seed; the same seed reproduces the same environment.
    """

    sigma_db: float = 6.0
    seed: int = 0

    slot_invariant = True

    def __post_init__(self) -> None:
        if self.sigma_db < 0.0:
            raise ConfigurationError(
                f"sigma_db must be non-negative, got {self.sigma_db}"
            )

    def _pair_fade(self, tx_ids, rx_ids, slot):
        lo = np.minimum(tx_ids, rx_ids)
        hi = np.maximum(tx_ids, rx_ids)
        # Box-Muller from two independent uniform streams per unordered pair.
        u1 = _uniform_open(_hash_u64(_SHADOW_STREAM, self.seed, lo, hi, 1))
        u2 = _uniform_open(_hash_u64(_SHADOW_STREAM, self.seed, lo, hi, 2))
        normal = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return np.power(10.0, (self.sigma_db / 10.0) * normal)


@dataclass(frozen=True)
class RayleighFading(GainModel):
    """Per-slot Rayleigh fast fading: ``F ~ Exponential(1)`` per ordered pair.

    Rayleigh-distributed amplitude means exponentially distributed received
    *power* with unit mean.  A fresh fade is drawn for every ordered
    ``(sender, receiver)`` pair every ``block_slots`` slots (the channel
    coherence time); ``slot=None`` (slotless contexts, e.g. feasibility
    checks) uses the block of slot 0.

    Args:
        seed: stream seed; the same seed reproduces the same fading process.
        block_slots: number of consecutive slots sharing one draw.
    """

    seed: int = 0
    block_slots: int = 1

    def __post_init__(self) -> None:
        if self.block_slots < 1:
            raise ConfigurationError(
                f"block_slots must be positive, got {self.block_slots}"
            )

    def _pair_fade(self, tx_ids, rx_ids, slot):
        block = 0 if slot is None else int(slot) // self.block_slots
        u = _uniform_open(_hash_u64(_RAYLEIGH_STREAM, self.seed, tx_ids, rx_ids, block))
        with np.errstate(divide="ignore"):
            return -np.log(u)


@dataclass(frozen=True)
class ComposedGain(GainModel):
    """Product of several gain models (e.g. shadowing on top of fast fading)."""

    models: tuple[GainModel, ...]

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigurationError("ComposedGain requires at least one model")
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(
            self, "deterministic", all(m.deterministic for m in self.models)
        )
        object.__setattr__(
            self, "slot_invariant", all(m.slot_invariant for m in self.models)
        )

    def _pair_fade(self, tx_ids, rx_ids, slot):
        total: np.ndarray | None = None
        for model in self.models:
            fade = model._pair_fade(tx_ids, rx_ids, slot)
            if fade is None:
                continue
            total = fade if total is None else total * fade
        return total
