"""Telemetry overhead benchmarks (PR 8): disabled must be free, timers cheap.

Three states of a slot decode workload - 256 agents, 32 transmitters, one
whole-universe ``resolve_indices_full`` per slot on a
:class:`~repro.state.DecodeWorkspace`:

* **plain** — no wrappers installed (the PR-5/PR-7 fast path);
* **disabled** — timing wrappers installed but telemetry off, i.e. the
  enabled-guard branch per kernel call: must stay within 2% of plain;
* **enabled** — wrappers installed and telemetry recording kernel timers:
  must stay within 15% of plain.

All three states produce bit-identical decode outputs; parity is asserted
in every mode, including the blocking CI smoke (under
``--benchmark-disable`` only the parity checks run — wall-clock ratios on
noisy shared runners must not gate merges).  The enabled run's registry is
exported as ``OBS_TRACE.json`` (Chrome trace-event JSON, Perfetto-loadable)
and ``OBS_METRICS.jsonl`` at the repo root; the bench CI job uploads both
as artifacts.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from pathlib import Path

import numpy as np

from repro.geometry import deployment_by_name
from repro.obs import (
    MetricsRegistry,
    instrument_kernels,
    span,
    telemetry,
    validate_chrome_trace,
    chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.sinr import CachedChannel, SINRParameters
from repro.state import DecodeWorkspace

REPO_ROOT = Path(__file__).resolve().parent.parent

N_AGENTS = 256
N_TRANSMITTERS = 32

N_SLOTS_TIMED = 2000
N_SLOTS_SMOKE = 120
REPEATS = 20
#: Telemetry off must cost nothing measurable: <= 2% on the slot decode.
DISABLED_OVERHEAD_CEILING = 1.02
#: Kernel timers recording on every decode call: <= 15%.
TIMERS_OVERHEAD_CEILING = 1.15


def _decode_setup(slots: int):
    params = SINRParameters()
    nodes = deployment_by_name("uniform", N_AGENTS, np.random.default_rng(5))
    channel = CachedChannel(params, nodes)
    tx = np.arange(0, N_AGENTS, N_AGENTS // N_TRANSMITTERS, dtype=np.intp)
    base = params.min_power_for(1.5)
    # Deterministic per-slot power ramp: every slot decodes differently.
    powers = base * (1.0 + 0.25 * ((np.arange(slots * len(tx)) % 97) / 97.0)).reshape(
        slots, len(tx)
    )
    # Materialize the attenuation store once, outside timing.
    channel.cache.state.attenuation_matrix(params.alpha)
    return channel, tx, powers


def _run_decode(channel, tx, powers):
    """Every slot decoded on one scratch arena, its outputs snapshotted."""
    workspace = DecodeWorkspace()
    outputs = []
    for slot in range(powers.shape[0]):
        best, sinr, ok = channel.resolve_indices_full(
            tx, powers[slot], slot=slot, workspace=workspace
        )
        outputs.append((best.copy(), sinr.copy(), ok.copy()))
    return outputs


def _timed(fn, wrapped: bool):
    """One timed run of ``fn``, with the kernel wrappers installed if
    ``wrapped``: (seconds, result).  The collector is held off while the
    clock runs, so a collection does not land on one state's run alone."""
    gc.collect()
    with instrument_kernels() if wrapped else contextlib.nullcontext():
        gc.disable()
        try:
            start = time.perf_counter()
            result = fn()
            return time.perf_counter() - start, result
        finally:
            gc.enable()


def _assert_parity(candidate, reference) -> None:
    """Slot-for-slot bitwise equality of two decode runs."""
    assert len(candidate) == len(reference)
    for (cb, cs, co), (rb, rs, ro) in zip(candidate, reference):
        assert np.array_equal(cb, rb)
        assert np.array_equal(cs, rs, equal_nan=True)
        assert np.array_equal(co, ro)


def _export_artifacts(registry: MetricsRegistry) -> None:
    """Repo-root telemetry artifacts the bench CI job uploads."""
    validate_chrome_trace(chrome_trace(registry))
    write_chrome_trace(registry, REPO_ROOT / "OBS_TRACE.json")
    write_jsonl(registry, REPO_ROOT / "OBS_METRICS.jsonl")


def bench_obs_overhead(benchmark):
    slots = N_SLOTS_TIMED if benchmark.enabled else N_SLOTS_SMOKE
    channel, tx, powers = _decode_setup(slots)

    def run_plain():
        return _run_decode(channel, tx, powers)

    registry = MetricsRegistry()

    if not benchmark.enabled:
        # Blocking CI smoke: parity across all three states, no wall-clock gate.
        plain = run_plain()
        with instrument_kernels():
            disabled = run_plain()
            with telemetry(registry):
                with span("bench.decode", slots=slots, mode="smoke"):
                    enabled = run_plain()
        _assert_parity(disabled, plain)
        _assert_parity(enabled, plain)
        assert registry.counter_totals().get("kernel.calls", 0) > 0
        _export_artifacts(registry)
        benchmark.pedantic(run_plain, rounds=1, iterations=1)
        return

    def run_enabled():
        with telemetry(registry):
            with span("bench.decode", slots=slots, mode="timed"):
                return run_plain()

    # Interleave the three states within each repeat: timing each state as a
    # contiguous block lets clock-speed drift across the run masquerade as
    # wrapper overhead (the disabled state once measured *slower* than the
    # enabled one purely from ordering).  Each repeat runs the states
    # back-to-back under the same machine conditions, so the per-repeat
    # ratios are drift-free, and the order reverses from one repeat to the
    # next, so no state always runs first; the median ratio across repeats
    # then shrugs off the odd repeat that caught a scheduler hiccup.
    run_plain()  # warm caches before the first timed repeat
    states = (
        ("plain", run_plain, False),
        ("disabled", run_plain, True),
        ("enabled", run_enabled, True),
    )
    times: dict[str, list[float]] = {name: [] for name, _, _ in states}
    outputs: dict[str, list] = {}
    for repeat in range(REPEATS):
        for name, fn, wrapped in states if repeat % 2 == 0 else states[::-1]:
            dt, outputs[name] = _timed(fn, wrapped)
            times[name].append(dt)
    plain_ts, disabled_ts, enabled_ts = times["plain"], times["disabled"], times["enabled"]
    plain, disabled, enabled = outputs["plain"], outputs["disabled"], outputs["enabled"]
    benchmark.pedantic(run_plain, rounds=1, iterations=1)

    _assert_parity(disabled, plain)
    _assert_parity(enabled, plain)
    assert registry.counter_totals().get("kernel.calls", 0) > 0
    _export_artifacts(registry)

    disabled_ratio = statistics.median(
        d / p for d, p in zip(disabled_ts, plain_ts)
    )
    enabled_ratio = statistics.median(
        e / p for e, p in zip(enabled_ts, plain_ts)
    )
    print()
    print(
        f"telemetry overhead on slot decode x {slots} slots "
        f"(median of {REPEATS} per-repeat ratios): "
        f"plain {min(plain_ts):.3f}s, wrappers+off {disabled_ratio:.3f}x, "
        f"wrappers+timers {enabled_ratio:.3f}x"
    )
    assert disabled_ratio <= DISABLED_OVERHEAD_CEILING, (
        f"disabled telemetry costs {disabled_ratio:.3f}x on the slot decode "
        f"(ceiling: {DISABLED_OVERHEAD_CEILING}x) — the guard idiom leaked"
    )
    assert enabled_ratio <= TIMERS_OVERHEAD_CEILING, (
        f"kernel timers cost {enabled_ratio:.3f}x on the slot decode "
        f"(ceiling: {TIMERS_OVERHEAD_CEILING}x)"
    )
