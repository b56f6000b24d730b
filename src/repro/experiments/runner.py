"""Experiment result container and shared helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..geometry import Node, deployment_by_name
from ..analysis import format_markdown_table, format_table
from ..obs.spans import span
from .config import ExperimentConfig
from .parallel import map_trials

__all__ = ["ExperimentResult", "make_deployment", "average_rows", "run_sweep"]


@dataclass
class ExperimentResult:
    """Rows plus a summary for one experiment.

    Attributes:
        experiment_id: short id ("E1", "F2", ...).
        title: one-line description, mirroring DESIGN.md's experiment index.
        rows: one dictionary per trial (or per aggregated sweep point).
        summary: headline quantities (fit exponents, ratios, pass flags).
    """

    experiment_id: str
    title: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    summary: dict[str, Any] = field(default_factory=dict)

    def table(self) -> str:
        """Aligned plain-text table of the rows."""
        return format_table(self.rows, title=f"{self.experiment_id}: {self.title}")

    def markdown(self) -> str:
        """Markdown rendering (used to refresh EXPERIMENTS.md)."""
        lines = [f"### {self.experiment_id} — {self.title}", "", format_markdown_table(self.rows)]
        if self.summary:
            lines.append("")
            lines.append(
                "Summary: " + ", ".join(f"{key} = {value}" for key, value in self.summary.items())
            )
        return "\n".join(lines)


def make_deployment(config: ExperimentConfig, n: int, seed: int, **kwargs) -> list[Node]:
    """Generate the configured deployment for a trial."""
    rng = np.random.default_rng(seed)
    return deployment_by_name(config.deployment, n, rng, **kwargs)


def run_sweep(trial_fn: Callable[[tuple], Any], config: ExperimentConfig) -> list[Any]:
    """Evaluate a module-level trial function over ``config.trials()``.

    Fans out over ``config.workers`` processes on the persistent trial
    fabric (see :mod:`repro.experiments.parallel`); every trial receives
    its ``(config, n, seed)`` tuple, and results come back in sweep order,
    bit-identical at any worker count.
    """
    trials = [(config, n, seed) for n, seed in config.trials()]
    with span(
        "experiment.sweep",
        trial_fn=getattr(trial_fn, "__name__", str(trial_fn)),
        trials=len(trials),
        workers=config.workers,
    ):
        return map_trials(trial_fn, trials, workers=config.workers)


def average_rows(
    rows: Sequence[dict[str, Any]],
    group_by: str,
    fields: Sequence[str],
) -> list[dict[str, Any]]:
    """Average numeric fields over rows sharing the same ``group_by`` value."""
    groups: dict[Any, list[dict[str, Any]]] = {}
    for row in rows:
        groups.setdefault(row[group_by], []).append(row)
    averaged: list[dict[str, Any]] = []
    for key in sorted(groups):
        bucket = groups[key]
        entry: dict[str, Any] = {group_by: key}
        for field_name in fields:
            values = [row[field_name] for row in bucket if field_name in row]
            if values and all(isinstance(v, (int, float, np.floating, np.integer)) for v in values):
                entry[field_name] = float(np.mean(values))
            elif values:
                entry[field_name] = values[0]
        averaged.append(entry)
    return averaged
