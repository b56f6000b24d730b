"""Experiment configuration.

Every experiment takes an :class:`ExperimentConfig`; the defaults are sized so
the whole suite (and the benchmark harness built on it) completes on a laptop
in minutes.  ``full()`` returns the larger sweep used for the numbers recorded
in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
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
    """

    sizes: tuple[int, ...] = (32, 64, 128)
    delta_targets: tuple[float, ...] = (1.0e2, 1.0e3, 1.0e4, 1.0e6)
    seeds: tuple[int, ...] = (1, 2)
    deployment: str = "uniform"
    params: SINRParameters = field(default_factory=SINRParameters)
    constants: AlgorithmConstants = DEFAULT_CONSTANTS
    delta_sweep_size: int = 48
    workers: int = 1

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
