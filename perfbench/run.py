"""Paper-pipeline benchmark: end-to-end host time and theorem slot counts.

Runs one named workload (see ``workloads.py``) from a seed as a closed loop on
one process: each pass starts when the previous one has finished, until
``--seconds`` have elapsed.  Every pass checks its outputs.  With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` untraced and traced passes alternate, and the per-layer metrics
come from the spans ``tracer.py`` records around each layer's public entry
points.

The timed end-to-end metrics (``setup_s``, ``pipeline_s``) are in reference
seconds: wall seconds corrected by the host speed sampled while they ran (see
``speed.py``), so that a host switching between full and contended speed does
not move them.  Their wall seconds are reported beside them.  The per-layer
times of a traced pass are scaled into reference seconds the same way.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-512 --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it are
a human-readable report of every metric with its unit, including the
simulated counts a workload produces.  A full report (and, when traced, every
span) is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Node count of the untimed warm-up pass that loads every code path.
WARMUP_N = 48

#: End-to-end metrics: (name, unit, better, bound).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.12),
    ("convergecast_slots", "slots", "lower", 0.25),
)

#: Units of the report-only metrics: host throughput, whose seed-to-seed
#: spread is too wide to gate on (a second Init sweep adds many cheap slots),
#: and the simulated counts the workloads produce.
REPORT_UNITS = {
    "setup_wall_s": "s",
    "pipeline_wall_s": "s",
    "slots_per_s": "1/s",
    "init_slots": "slots",
    "mean_power_slots": "slots",
    "tvc_slots": "slots",
    "tvc_mean_slots": "slots",
    "tvc_construction_slots": "slots",
    "convergecast_slots": "slots",
    "lossy_init_slots": "slots",
    "lossy_slot_overhead": "ratio",
    "delivered_ratio": "ratio",
    "recovery_slots": "slots",
    "sim_slots": "slots",
}


#: Units of per-layer metrics that are times, scaled into reference seconds.
TIME_UNITS = ("s", "us")


def _import_program() -> bool:
    """Make ``repro`` importable from this checkout's ``src/``; False if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return SRC.resolve() in Path(repro.__file__).resolve().parents


def _measure_setup(workload: str, n: int, seed: int) -> tuple[float, float, set[str]]:
    """Median cold set-up over fresh interpreters, in reference and in wall
    seconds, and the digests they saw."""
    times: list[float] = []
    wall: list[float] = []
    digests: set[str] = set()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(n), str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        wall.append(probe["setup_wall_s"])
        digests.add(probe["digest"])
    return statistics.median(times), statistics.median(wall), digests


def _run_pass(workload, deployments, seed, tracer=None, pass_id=0):
    """One timed pass: (SpeedMeter, PassResult or None, error text or None)."""
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            tracer.begin_pass(pass_id)
        gc.collect()
        result, error = None, None
        with speed.SpeedMeter() as meter:
            try:
                result = workload.run(deployments, seed)
            except Exception as raised:  # a raised error is a failed output, not a crash
                error = f"{type(raised).__name__}: {raised}"
        return meter, result, error


def _record(ledger, result, error: str | None) -> None:
    """Count a pass's checks into the run's ledger; a raised error is one failure."""
    if error is None:
        ledger.merge(result.checks)
    else:
        ledger.expect(f"pass raised {error}", False)


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, n: int | None = None
) -> tuple[dict, dict]:
    """Run one workload; returns (result line object, full report).

    ``n`` overrides the workload's node count (the tests run at tiny n).
    """
    import numpy as np

    import workloads
    from repro.experiments.parallel import usable_cpu_count
    from tracer import PER_LAYER, SETUP_PASS, Tracer, per_layer_metrics

    workload = workloads.WORKLOADS[workload_name]
    n = workload.n if n is None else n
    ledger = workloads.Checks()

    setup_s, setup_wall_s, probe_digests = _measure_setup(workload_name, n, seed)
    tracer = Tracer() if trace else None
    with tracer.installed() if tracer else ExitStack():
        if tracer:
            tracer.begin_pass(SETUP_PASS)
        deployments = workload.deploy(seed, n)
    ledger.expect(
        "setup.same_deployment", probe_digests == {workloads.deployment_digest(deployments)}
    )

    # Warm-up: load every lazily imported module and first-call path, untimed.
    warm, result, error = _run_pass(workload, workload.deploy(seed, WARMUP_N), seed)
    _record(ledger, result, error)

    # Closed loop; a traced run alternates untraced and traced passes.
    passes: list[tuple[bool, speed.SpeedMeter, object]] = []
    elapsed = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        meter, result, error = _run_pass(
            workload, deployments, seed, tracer if traced else None, len(passes)
        )
        _record(ledger, result, error)
        passes.append((traced, meter, result))
        if len(passes) == 1:
            # Peak memory through the first pass: later passes can raise the
            # high-water mark a little, and how many fit in a run varies.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed += meter.wall_s
        if len(passes) >= (2 if tracer else 1) and elapsed >= seconds:
            break

    results = [result for _, _, result in passes if result is not None]
    sim = results[0].sim if results else {}
    ledger.expect("passes.sim_repeat_exactly", all(r.sim == sim for r in results))
    untraced = [meter for traced, meter, _ in passes if not traced]
    pipeline_s = statistics.median(meter.reference_s for meter in untraced)
    end_to_end = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "pipeline_s": pipeline_s,
        "pipeline_wall_s": statistics.median(meter.wall_s for meter in untraced),
        "slots_per_s": sim.get("sim_slots", 0) / pipeline_s,
        "peak_rss_mb": peak_rss_mb,
        "convergecast_slots": sim.get("convergecast_slots", 0),
    }
    report = {
        "workload": workload_name,
        "why": workload.why,
        "n": n,
        "instances": workload.instances,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "usable_cpu_count": usable_cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pass_seconds": [meter.wall_s for _, meter, _ in passes],
        "pass_reference_seconds": [meter.reference_s for _, meter, _ in passes],
        "pass_speed_samples": [len(meter.samples) for _, meter, _ in passes],
        "pass_traced": [traced for traced, _, _ in passes],
        "warmup_seconds": warm.wall_s,
        "end_to_end": end_to_end,
        "sim": sim,
    }
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER} | REPORT_UNITS
    OUT.mkdir(exist_ok=True)
    if tracer is None:
        metrics = {name: end_to_end[name] for name, *_ in END_TO_END}
    else:
        traced_ids = [i for i, (traced, _, _) in enumerate(passes) if traced]
        # Span times are wall time: put them in reference seconds with the
        # host speed sampled during their pass, like pipeline_s.
        per_pass = [
            {
                name: value * passes[i][1].scale if units[name] in TIME_UNITS else value
                for name, value in per_layer_metrics(tracer, i).items()
            }
            for i in traced_ids
        ]
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        traced_s = statistics.median(report["pass_reference_seconds"][i] for i in traced_ids)
        metrics["trace_overhead"] = traced_s / pipeline_s
        metrics = {name: metrics[name] for name, *_ in PER_LAYER}
        report["per_layer"] = metrics
        report["layer_self_s"] = {str(i): tracer.layer_self(i) for i in traced_ids}
        tracer.write(str(OUT / f"{workload_name}-seed{seed}.spans.json.gz"))

    failed = len(ledger.failures)
    report["attempted"] = ledger.attempted
    report["failed_ratio"] = failed / ledger.attempted
    report["failures"] = ledger.failures
    (OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2)
    )
    _print_report(report, metrics if tracer else {}, units, {e[0]: e[3] for e in PER_LAYER})
    line = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return line, report


def _print_report(report: dict, per_layer: dict, units: dict, moves: dict) -> None:
    passes = len(report["pass_seconds"])
    print(
        f"# {report['workload']} n={report['n']} instances={report['instances']} "
        f"seed={report['seed']} passes={passes} "
        f"cpus={report['usable_cpu_count']} python={report['python']} numpy={report['numpy']}"
    )
    print(f"# why: {report['why']}")
    for name, value in report["end_to_end"].items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ratio {report['failed_ratio']:.6g} ratio")
    for name, value in report["sim"].items():
        if name not in report["end_to_end"]:
            print(f"{name} {value:.6g} {units[name]}")
    for name, value in per_layer.items():
        print(f"{name} {value:.6g} {units[name]}  # moves {moves[name]}")
    for failure in report["failures"]:
        print(f"# FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    line, _ = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
