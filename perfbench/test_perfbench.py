"""Tests of the benchmark itself, at tiny node counts.

Run with:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads
from repro import analysis
from repro.core import power_solver, tree_via_capacity

TINY_N = 40
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _reports_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_emits_every_metric_with_a_unit(name, trace, capsys):
    line, report = run.run(name, seed=3, seconds=0, trace=trace, n=TINY_N)
    declared = run.END_TO_END if not trace else tracer.PER_LAYER
    assert list(line["metrics"]) == [entry[0] for entry in declared]
    for entry in declared:
        metric = line["metrics"][entry[0]]
        assert metric["unit"] == entry[1]
        assert isinstance(metric["value"], (int, float))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert report["failed_ratio"] == 0
    # Every simulated count the workload produces is printed with its unit.
    printed = capsys.readouterr().out
    for sim_name in report["sim"]:
        assert f"{sim_name} " in printed
    if not trace:
        for value in (line["metrics"][name]["value"] for name, *_ in run.END_TO_END):
            assert value > 0


def test_broken_output_is_counted_as_failed(monkeypatch):
    real = analysis.simulate_broadcast

    def lossy_broadcast(tree, power, params, **kwargs):
        outcome = real(tree, power, params, **kwargs)
        return type(outcome)(outcome.slots, outcome.reached - 1, outcome.total, False)

    monkeypatch.setattr(analysis, "simulate_broadcast", lossy_broadcast)
    line, report = run.run("init-3k", seed=3, seconds=0, trace=False, n=TINY_N)
    assert not line["correct"]
    assert line["failed"] > 0
    assert report["failed_ratio"] == line["failed"] / line["attempted"]
    assert any("broadcast_reaches_all" in failure for failure in report["failures"])


def test_raising_pass_is_counted_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(analysis, "validate_bitree", broken)
    line, report = run.run("init-3k", seed=3, seconds=0, trace=False, n=TINY_N)
    assert not line["correct"]
    assert any("injected" in failure for failure in report["failures"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_passes_agree_on_simulated_metrics(name):
    workload = workloads.WORKLOADS[name]
    deployments = workload.deploy(5, TINY_N)
    plain = workload.run(deployments, 5)
    spans = tracer.Tracer()
    with spans.installed():
        spans.begin_pass(0)
        traced = workload.run(deployments, 5)
    assert traced.sim == plain.sim
    assert spans.group_stats(0)["runtime.step"]["calls"] > 0


def test_tracer_restores_every_patched_attribute():
    before = (power_solver.solve_power, tree_via_capacity.solve_power, analysis.validate_bitree)
    with tracer.Tracer().installed():
        assert tree_via_capacity.solve_power is not before[1]
    assert (power_solver.solve_power, tree_via_capacity.solve_power, analysis.validate_bitree) == before


def test_nested_spans_give_outermost_busy_time_and_self_time():
    spans = tracer.Tracer()
    with spans.installed():
        spans.begin_pass(0)
        nodes = workloads.deploy(TINY_N, 1, 0)
        workloads.init_pass(nodes, 1, 0)
    stats = spans.group_stats(0)
    own = spans.layer_self(0)
    # Decode spans nest only inside steps and replays; their busy time is
    # bounded by the step and replay time that contains them.
    assert 0 < stats["sinr.decode"]["busy_s"] <= (
        stats["runtime.step"]["busy_s"] + stats["analysis.replay"]["busy_s"]
    )
    assert own["runtime"] <= stats["runtime.step"]["busy_s"]
    assert stats["core.init"]["calls"] == 1


def test_speed_meter_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter() as meter:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            speed.unit()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 3
    spent = sum(meter.samples)
    mean_unit = spent / len(meter.samples)
    assert meter.reference_s == pytest.approx(
        (meter.wall_s - spent) * speed.REFERENCE_UNIT_S / mean_unit
    )


def test_speed_meter_without_samples_reports_wall_seconds():
    with speed.SpeedMeter() as meter:
        pass
    assert meter.samples == []
    assert meter.reference_s == meter.wall_s


def test_same_seed_gives_same_inputs():
    lossy = workloads.WORKLOADS["lossy-512"]
    digest = workloads.deployment_digest(lossy.deploy(7, 64))
    assert digest == workloads.deployment_digest(lossy.deploy(7, 64))
    assert digest != workloads.deployment_digest(lossy.deploy(8, 64))
    # Instances of one seed are distinct deployments.
    first, second = (workloads.deployment_digest([nodes]) for nodes in lossy.deploy(7, 64)[:2])
    assert first != second


def test_pass_reports_the_mean_over_instances_and_every_check():
    pipeline = workloads.WORKLOADS["pipeline-512"]
    deployments = pipeline.deploy(2, TINY_N)
    whole = pipeline.run(deployments, 2)
    parts = [workloads.pipeline_pass(nodes, 2, k) for k, nodes in enumerate(deployments)]
    assert whole.sim == {key: sum(p.sim[key] for p in parts) / len(parts) for key in whole.sim}
    assert whole.checks.attempted == sum(p.checks.attempted for p in parts)


def test_benchmark_json_matches_the_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in doc["per_layer"]] == [e[:3] for e in tracer.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "init-3k", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
