"""SINR model parameters.

The physical (SINR) model of interference, Eqn. (1) of the paper: a
transmission from ``u`` to ``v`` succeeds when

    (P_u / d(u,v)**alpha) / (N + sum_w P_w / d(w,v)**alpha) >= beta

where ``alpha > 2`` is the path-loss exponent, ``beta`` the required SINR
threshold, and ``N`` the ambient noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dynamics uses sinr)
    from ..dynamics.gain import GainModel

__all__ = ["SINRParameters", "DEFAULT_PARAMETERS"]


@dataclass(frozen=True)
class SINRParameters:
    """Immutable bundle of physical-model parameters.

    Attributes:
        alpha: path-loss exponent; must exceed 2 (the plane's critical value).
        beta: minimum signal-to-interference-and-noise ratio for success.
        noise: ambient noise power ``N``.
        epsilon: the cap constant in the thresholded affectance
            ``min(1 + epsilon, ...)`` (Section 5).
        max_power: optional hard cap on transmit power.  The paper imposes no
            cap; a finite value is useful for sensitivity studies only.
        gain_model: optional channel-gain model (``repro.dynamics.gain``)
            multiplying the deterministic path loss with per-pair fade
            factors.  ``None`` (the default) is the paper's pure
            ``P / d**alpha`` model; every kernel then takes its original code
            path, bit-for-bit.  The model must be a pure function of
            ``(configuration, node ids, slot)`` so cached matrices keyed by
            this parameter bundle stay valid.

    Raises:
        ConfigurationError: if a numeric field is non-finite (NaN or
            infinite) or outside its range.
    """

    alpha: float = 3.0
    beta: float = 1.5
    noise: float = 1.0
    epsilon: float = 0.1
    max_power: float | None = None
    gain_model: "GainModel | None" = None

    def __post_init__(self) -> None:
        # NaN compares false against every bound below, so it must be
        # rejected explicitly before the range checks.
        for name in ("alpha", "beta", "noise", "epsilon", "max_power"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.alpha <= 2.0:
            raise ConfigurationError(f"alpha must exceed 2, got {self.alpha}")
        if self.beta <= 0.0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.noise < 0.0:
            raise ConfigurationError(f"noise must be non-negative, got {self.noise}")
        if self.epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_power is not None and self.max_power <= 0.0:
            raise ConfigurationError(f"max_power must be positive, got {self.max_power}")

    def min_power_for(self, length: float, slack: float = 2.0) -> float:
        """Smallest power keeping the link cost ``c(u, v)`` at most ``slack * beta``.

        The paper requires ``c(u, v) <= 2 * beta``, which a sender guarantees
        by transmitting with power at least ``2 * beta * N * d**alpha``
        (Section 6 uses exactly this with ``d = 2**r``).

        Args:
            length: link length ``d(u, v)``.
            slack: multiple of ``beta`` allowed for the link cost; the paper's
                choice is 2.

        Raises:
            ConfigurationError: if ``slack <= 1`` (the cost can never fall to
                ``beta`` at finite power when noise is positive).
        """
        if slack <= 1.0:
            raise ConfigurationError("slack must exceed 1")
        if length <= 0:
            raise ValueError("length must be positive")
        if self.noise == 0.0:
            return 0.0
        return slack / (slack - 1.0) * self.beta * self.noise * length**self.alpha

    @property
    def effective_gain_model(self) -> "GainModel | None":
        """The gain model when it can actually perturb results, else ``None``.

        Kernels branch on this: a ``None`` (absent *or* deterministic) model
        means the original hardcoded-path-loss code path runs unmodified, so
        ``DeterministicPathLoss`` is bit-for-bit equivalent to no model.
        """
        model = self.gain_model
        if model is None or model.deterministic:
            return None
        return model

    def with_overrides(self, **kwargs: object) -> "SINRParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_PARAMETERS = SINRParameters()
