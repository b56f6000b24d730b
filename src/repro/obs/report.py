"""``python -m repro.obs report`` — instrumented experiment summary.

Runs one registered experiment (any ``E*``/``F*`` id from
``repro.experiments.ALL_EXPERIMENTS``) with telemetry enabled and kernel
timers installed, then prints

* the per-kernel wall-time table (``kernel.calls`` joined with
  ``kernel.time_ns``),
* every counter the run accumulated (simulator slots, netsim fault
  tallies, repair patches, ...), and
* optionally a tracemalloc top-allocation view from a second,
  uninstrumented pass (``--allocs``),

and exports the registry on request as a Perfetto-loadable Chrome trace
(``--trace``), metrics JSONL (``--jsonl``) or Prometheus text (``--prom``).

Usage:
    python -m repro.obs report                       # E13, quick config
    python -m repro.obs report --experiment E1 --workers 2
    python -m repro.obs report --trace e13.trace.json --jsonl e13.jsonl
    python -m repro.obs report --allocs --top 20
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .export import prometheus_text, write_chrome_trace, write_jsonl
from .kernels import instrument_kernels
from .profiling import top_allocations
from .runtime import telemetry

__all__ = ["build_parser", "main", "run_report"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs report",
        description="Run one registered experiment with telemetry on and summarize it.",
    )
    parser.add_argument(
        "--experiment",
        default="E13",
        help="experiment id (E1..E13, F1..F3); default E13",
    )
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--quick", action="store_true", help="quick config (the default)")
    size.add_argument("--full", action="store_true", help="full-size sweep")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial-fabric workers; counters merge exactly at any count (default 1)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        help="write a Perfetto-loadable Chrome trace JSON here",
    )
    parser.add_argument(
        "--jsonl", type=Path, default=None, help="write the metrics registry as JSONL here"
    )
    parser.add_argument(
        "--prom", type=Path, default=None, help="write Prometheus text exposition here"
    )
    parser.add_argument(
        "--no-kernel-timers",
        action="store_true",
        help="skip instrument_kernels(): counters and spans only",
    )
    parser.add_argument(
        "--allocs",
        action="store_true",
        help="add a second, uninstrumented pass under tracemalloc",
    )
    parser.add_argument(
        "--top", type=int, default=15, help="rows in the allocation table (default 15)"
    )
    return parser


def run_report(args: argparse.Namespace) -> int:
    """Execute the ``report`` subcommand; returns a process exit code."""
    # Imported here, not at module top: the experiment harness itself uses
    # repro.obs, and the report CLI is the one obs module that looks back up
    # the stack - deferring keeps ``import repro.obs`` light and cycle-free.
    from ..analysis.reporting import (
        counters_table,
        format_table,
        gauges_table,
        kernel_time_table,
    )
    from ..experiments import ALL_EXPERIMENTS, ExperimentConfig

    experiment_id = args.experiment.upper()
    runner = ALL_EXPERIMENTS.get(experiment_id)
    if runner is None:
        print(
            f"unknown experiment {args.experiment!r}; pick one of "
            + ", ".join(ALL_EXPERIMENTS),
            file=sys.stderr,
        )
        return 2
    config = ExperimentConfig.full() if args.full else ExperimentConfig.quick()
    config = dataclasses.replace(config, workers=args.workers)

    instrumentation = None if args.no_kernel_timers else instrument_kernels()
    try:
        with telemetry() as registry:
            result = runner(config)
    finally:
        if instrumentation is not None:
            instrumentation.restore()

    print(f"== {result.experiment_id}: {result.title}")
    print(f"   rows: {len(result.rows)}, workers: {config.workers}, summary: {result.summary}")
    print()
    if instrumentation is not None:
        print(kernel_time_table(registry, title="per-kernel wall time (inclusive)"))
        print()
    print(counters_table(registry, title="counters"))
    if any(True for _ in registry.gauges()):
        print()
        print(gauges_table(registry, title="gauges (last value)"))
    print(f"\nspans recorded: {len(registry.spans)}")

    if args.trace is not None:
        write_chrome_trace(registry, args.trace)
        print(f"chrome trace -> {args.trace} (open in https://ui.perfetto.dev)")
    if args.jsonl is not None:
        write_jsonl(registry, args.jsonl)
        print(f"metrics jsonl -> {args.jsonl}")
    if args.prom is not None:
        Path(args.prom).write_text(prometheus_text(registry))
        print(f"prometheus text -> {args.prom}")

    if args.allocs:
        repo_root = Path(__file__).resolve().parents[3]
        _, rows = top_allocations(
            lambda: runner(config), top=args.top, strip_prefix=str(repo_root)
        )
        print()
        print(
            format_table(
                rows,
                columns=("kib", "blocks", "location"),
                title=f"top {args.top} allocation sites (uninstrumented re-run)",
            )
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point shared by ``__main__`` and tests."""
    args = build_parser().parse_args(argv)
    return run_report(args)


if __name__ == "__main__":
    raise SystemExit(main())
