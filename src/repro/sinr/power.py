"""Power assignments.

The paper distinguishes:

* *uniform* power ``U`` - every sender uses the same level;
* *oblivious* assignments, where a sender's power depends only on the length
  of the link it is serving.  The two of interest are *mean* power
  ``P(l) = l**(alpha/2)`` and *linear* power ``P(l) = l**alpha``;
* *arbitrary* (instance-dependent) power, represented here by
  :class:`ExplicitPower` mapping each link to its own level.

Every assignment here multiplies the textbook form by a configurable
``scale``.  With ambient noise the textbook forms are not directly usable (a
unit-length link at power 1 cannot overcome noise), so factory helpers compute
the scale that keeps every link's cost ``c(u, v)`` at most ``2 * beta`` - the
standing assumption of Section 5.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Mapping

from ..exceptions import ConfigurationError
from ..links import Link
from .parameters import SINRParameters

__all__ = [
    "PowerAssignment",
    "UniformPower",
    "MeanPower",
    "LinearPower",
    "ExplicitPower",
    "OBLIVIOUS_SCHEMES",
    "oblivious_power_by_name",
]


class PowerAssignment(ABC):
    """Maps each link to the transmit power its sender uses for it."""

    @abstractmethod
    def power(self, link: Link) -> float:
        """Transmit power used by ``link.sender`` when serving ``link``."""

    @property
    def name(self) -> str:
        """Human-readable scheme name (used in reports)."""
        return type(self).__name__

    def powers(self, links: Iterable[Link]) -> list[float]:
        """Vector of powers for an iterable of links (in iteration order)."""
        return [self.power(link) for link in links]


class UniformPower(PowerAssignment):
    """Every sender transmits at the same fixed power level."""

    def __init__(self, level: float) -> None:
        if level <= 0:
            raise ConfigurationError(f"power level must be positive, got {level}")
        self.level = float(level)

    def power(self, link: Link) -> float:
        return self.level

    @classmethod
    def for_max_length(
        cls, params: SINRParameters, max_length: float, slack: float = 2.0
    ) -> "UniformPower":
        """Uniform power sufficient for any link up to ``max_length`` against noise."""
        return cls(params.min_power_for(max_length, slack) if params.noise > 0 else 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformPower(level={self.level:.4g})"


class _LengthPower(PowerAssignment):
    """Base class for oblivious power of the form ``scale * length**exponent``."""

    def __init__(self, exponent: float, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        if exponent < 0:
            raise ConfigurationError(f"exponent must be non-negative, got {exponent}")
        self.exponent = float(exponent)
        self.scale = float(scale)

    def power(self, link: Link) -> float:
        return self.of_length(link.length)

    def of_length(self, length: float) -> float:
        """The power of a link of the given length (what :meth:`power` gives)."""
        return self.scale * length**self.exponent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(exponent={self.exponent:.3g}, scale={self.scale:.4g})"


class MeanPower(_LengthPower):
    """Mean power: ``P(l) = scale * l**(alpha/2)`` (the paper's assignment M)."""

    def __init__(self, alpha: float, scale: float = 1.0) -> None:
        super().__init__(exponent=alpha / 2.0, scale=scale)
        self.alpha = float(alpha)

    @classmethod
    def for_max_length(
        cls, params: SINRParameters, max_length: float, slack: float = 2.0
    ) -> "MeanPower":
        """Mean power scaled so every link up to ``max_length`` overcomes noise.

        ``scale = slack/(slack-1) * beta * N * max_length**(alpha/2)`` gives
        ``P(l) = scale * l**(alpha/2) >= slack/(slack-1) * beta * N * l**alpha``
        for every ``l <= max_length``, i.e. ``c(u, v) <= slack * beta``.
        """
        if max_length <= 0:
            raise ConfigurationError("max_length must be positive")
        if params.noise == 0:
            return cls(params.alpha, 1.0)
        scale = slack / (slack - 1.0) * params.beta * params.noise * max_length ** (params.alpha / 2.0)
        return cls(params.alpha, scale)


class LinearPower(_LengthPower):
    """Linear power: ``P(l) = scale * l**alpha`` (the paper's assignment L)."""

    def __init__(self, alpha: float, scale: float = 1.0) -> None:
        super().__init__(exponent=alpha, scale=scale)
        self.alpha = float(alpha)

    @classmethod
    def for_noise(cls, params: SINRParameters, slack: float = 2.0) -> "LinearPower":
        """Linear power scaled so every link overcomes noise with cost <= slack*beta."""
        if params.noise == 0:
            return cls(params.alpha, 1.0)
        return cls(params.alpha, slack / (slack - 1.0) * params.beta * params.noise)


class ExplicitPower(PowerAssignment):
    """Arbitrary per-link power levels, keyed by (sender id, receiver id).

    Args:
        assignment: mapping from ``(sender_id, receiver_id)`` or :class:`Link`
            to a positive power level.
        fallback: assignment consulted for links absent from the mapping; if
            ``None`` a missing link raises ``KeyError``.
    """

    def __init__(
        self,
        assignment: Mapping[tuple[int, int], float] | Mapping[Link, float],
        fallback: PowerAssignment | None = None,
    ) -> None:
        self._powers: dict[tuple[int, int], float] = {}
        for key, value in assignment.items():
            if value <= 0:
                raise ConfigurationError(f"power for {key} must be positive, got {value}")
            if isinstance(key, Link):
                self._powers[key.endpoint_ids] = float(value)
            else:
                self._powers[(int(key[0]), int(key[1]))] = float(value)
        self._fallback = fallback

    def power(self, link: Link) -> float:
        key = link.endpoint_ids
        if key in self._powers:
            return self._powers[key]
        if self._fallback is not None:
            return self._fallback.power(link)
        raise KeyError(f"no power assigned to link {key}")

    def set_power(self, link: Link, level: float) -> None:
        """Assign (or overwrite) the power level of a link."""
        if level <= 0:
            raise ConfigurationError(f"power must be positive, got {level}")
        self._powers[link.endpoint_ids] = float(level)

    def __len__(self) -> int:
        return len(self._powers)

    def as_dict(self) -> dict[tuple[int, int], float]:
        """Copy of the explicit (sender id, receiver id) -> power mapping."""
        return dict(self._powers)

    @property
    def fallback(self) -> PowerAssignment | None:
        """The assignment consulted for links absent from the explicit map."""
        return self._fallback

    def flattened(self) -> tuple[dict[tuple[int, int], float], PowerAssignment | None]:
        """Explicit entries merged across chained ``ExplicitPower`` fallbacks.

        Outer layers win on key collisions.  Returns the merged mapping plus
        the first non-explicit fallback (or ``None``), so repeated
        wrap-and-fallback constructions (e.g. one tree repair per churn
        epoch) can rebuild a single flat layer instead of growing an
        unbounded lookup chain.
        """
        merged: dict[tuple[int, int], float] = {}
        layer: PowerAssignment | None = self
        while isinstance(layer, ExplicitPower):
            for key, value in layer._powers.items():
                merged.setdefault(key, value)
            layer = layer._fallback
        return merged, layer


OBLIVIOUS_SCHEMES = ("uniform", "mean", "linear")


def oblivious_power_by_name(
    name: str, params: SINRParameters, max_length: float, slack: float = 2.0
) -> PowerAssignment:
    """Construct a noise-safe oblivious assignment by name.

    Raises:
        ConfigurationError: for unknown names.
    """
    if name == "uniform":
        return UniformPower.for_max_length(params, max_length, slack)
    if name == "mean":
        return MeanPower.for_max_length(params, max_length, slack)
    if name == "linear":
        return LinearPower.for_noise(params, slack)
    raise ConfigurationError(f"unknown oblivious power scheme {name!r}; options: {OBLIVIOUS_SCHEMES}")
