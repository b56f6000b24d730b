"""Experiment configuration.

Every experiment takes an :class:`ExperimentConfig`; the defaults are sized so
the whole suite (and the benchmark harness built on it) completes on a laptop
in minutes.  ``full()`` returns the larger sweep used for the numbers recorded
in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ConfigurationError
from ..geometry import DEPLOYMENT_GENERATORS
from ..sinr import SINRParameters

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the experiment harness.

    Attributes:
        sizes: network sizes ``n`` swept by size-scaling experiments.
        delta_targets: distance ratios swept by the Delta experiments.
        seeds: random seeds; each (size, seed) pair is one trial.
        deployment: deployment generator name (see ``repro.geometry``).
        params: SINR model parameters.
        constants: protocol constants.
        delta_sweep_size: fixed ``n`` used while sweeping Delta.
        workers: trial-level parallelism.  ``1`` (default) runs trials
            sequentially in-process; ``k > 1`` fans independent trials out
            over ``k`` worker processes; ``-1`` uses all cores but one.
            Results are identical either way (trials are deterministically
            seeded from their own arguments).

    Raises:
        ConfigurationError: for an empty ``sizes`` or ``seeds``, a size
            below 1, a negative seed, a ``delta_targets`` entry that is not
            finite or not above 2, a ``delta_sweep_size`` of 4 or less (the
            Delta sweep's ``two_scale`` deployment places 4 outliers), an
            unknown ``deployment``, or ``workers`` of 0 or below -1.
    """

    sizes: tuple[int, ...] = (32, 64, 128)
    delta_targets: tuple[float, ...] = (1.0e2, 1.0e3, 1.0e4, 1.0e6)
    seeds: tuple[int, ...] = (1, 2)
    deployment: str = "uniform"
    params: SINRParameters = field(default_factory=SINRParameters)
    constants: AlgorithmConstants = DEFAULT_CONSTANTS
    delta_sweep_size: int = 48
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ConfigurationError("sizes must name at least one network size")
        if not self.seeds:
            raise ConfigurationError("seeds must name at least one seed")
        if min(self.sizes) < 1:
            raise ConfigurationError(f"sizes must be positive, got {self.sizes}")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be non-negative, got {self.seeds}")
        for target in self.delta_targets:
            if not (math.isfinite(target) and target > 2.0):
                raise ConfigurationError(f"delta targets must be finite and exceed 2, got {target}")
        if self.delta_sweep_size <= 4:
            raise ConfigurationError(
                f"delta_sweep_size must exceed the 4 outliers of the Delta sweep, "
                f"got {self.delta_sweep_size}"
            )
        if self.deployment not in DEPLOYMENT_GENERATORS:
            raise ConfigurationError(
                f"unknown deployment {self.deployment!r}; options: {sorted(DEPLOYMENT_GENERATORS)}"
            )
        if self.workers == 0 or self.workers < -1:
            raise ConfigurationError(
                f"workers must be positive or -1 (all cores but one), got {self.workers}"
            )

    @staticmethod
    def quick() -> "ExperimentConfig":
        """Small configuration for smoke tests and CI."""
        return ExperimentConfig(sizes=(24, 48), delta_targets=(1.0e2, 1.0e4), seeds=(1,))

    @staticmethod
    def full() -> "ExperimentConfig":
        """The sweep recorded in EXPERIMENTS.md."""
        return ExperimentConfig(
            sizes=(32, 64, 128, 256),
            delta_targets=(1.0e2, 1.0e3, 1.0e4, 1.0e6, 1.0e8),
            seeds=(1, 2, 3),
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy of the configuration with fields replaced."""
        return replace(self, **kwargs)

    def trials(self) -> Sequence[tuple[int, int]]:
        """All (size, seed) pairs, in sweep order."""
        return [(size, seed) for size in self.sizes for seed in self.seeds]
