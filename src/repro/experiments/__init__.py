"""Experiment harness: one module per experiment in DESIGN.md's index."""

from . import (
    e1_init,
    e2_degree,
    e3_sparsity,
    e4_reschedule,
    e5_tvc_arbitrary,
    e6_tvc_mean,
    e7_tm_subset,
    e8_latency,
    e9_capacity,
    e10_fading,
    e11_mobility,
    e12_churn,
    e13_loss,
    e14_failover,
    f1_comparison,
    f2_delta,
    f3_uniform_lower_bound,
)
from .config import ExperimentConfig
from .parallel import TrialFabric, default_workers, get_fabric, map_trials
from .runner import ExperimentResult, average_rows, make_deployment, run_sweep

ALL_EXPERIMENTS = {
    "E1": e1_init.run,
    "E2": e2_degree.run,
    "E3": e3_sparsity.run,
    "E4": e4_reschedule.run,
    "E5": e5_tvc_arbitrary.run,
    "E6": e6_tvc_mean.run,
    "E7": e7_tm_subset.run,
    "E8": e8_latency.run,
    "E9": e9_capacity.run,
    "E10": e10_fading.run,
    "E11": e11_mobility.run,
    "E12": e12_churn.run,
    "E13": e13_loss.run,
    "E14": e14_failover.run,
    "F1": f1_comparison.run,
    "F2": f2_delta.run,
    "F3": f3_uniform_lower_bound.run,
}


def run_all(config: ExperimentConfig | None = None) -> dict[str, ExperimentResult]:
    """Run every experiment and return results keyed by experiment id."""
    config = config or ExperimentConfig()
    return {key: runner(config) for key, runner in ALL_EXPERIMENTS.items()}


__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "average_rows",
    "make_deployment",
    "run_sweep",
    "map_trials",
    "default_workers",
    "TrialFabric",
    "get_fabric",
    "ALL_EXPERIMENTS",
    "run_all",
]
