"""Span tracer wrapped around the public entry points of each ``repro`` layer.

The tracer lives entirely outside the program: :meth:`Tracer.installed`
replaces each probed function or method at class or module attribute level
(every ``repro.*`` module that re-exports a probed function gets the same
wrapper) and puts the originals back on exit.  A wrapper records one span -
name, start, end, parent span, pass id - into flat in-memory columns, and may
feed a counter from the call's arguments, result or exception.  Nothing the
program computes changes, so simulated results are identical with tracing on
and off.

Per-layer metrics are computed from the spans of one pass:

* a group's busy time counts only its outermost spans (``CachedChannel``
  delegating to ``Channel`` is one decode, not two);
* a layer's self time is its spans' durations minus the part their child
  spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from repro.exceptions import InfeasiblePowerError

__all__ = [
    "Probe",
    "PROBES",
    "LAYERS",
    "PER_LAYER",
    "SETUP_PASS",
    "Tracer",
    "per_layer_metrics",
]

Hook = Callable[[dict, tuple, dict, Any, bool], None]


@dataclass(frozen=True)
class Probe:
    """One traced entry point.

    Attributes:
        group: metric family the span belongs to (``"sinr.decode"``); the
            layer is its first dotted component.
        module: defining module.
        attr: ``"Class.method"`` or a module-level function name.
        on_result: ``hook(counts, args, kwargs, result, outermost)`` run after
            a successful call.
        on_error: exception type counted as ``<group>.errors`` when raised.
    """

    group: str
    module: str
    attr: str
    on_result: Hook | None = None
    on_error: type[BaseException] | None = None


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _init_result(counts, args, kwargs, result, outer):
    _add(counts, "core.init.sweeps", result.sweeps_used)


def _distr_cap_result(counts, args, kwargs, result, outer):
    _add(counts, "core.distr_cap.candidates", len(args[1]))
    _add(counts, "core.distr_cap.selected", len(result.selected))


def _net_init_result(counts, args, kwargs, result, outer):
    if not outer:
        # Completion patches run nested builds; the outer result's summary
        # already speaks for the whole run.
        return
    summary = result.fault_summary
    _add(counts, "netsim.drops", summary.get("dropped", 0))
    _add(counts, "netsim.heartbeat_losses", summary.get("heartbeat_losses", 0))
    _add(counts, "netsim.transmissions", summary.get("transmissions", 0))
    _add(counts, "netsim.retries", summary.get("retries", 0))


def _convergecast_result(counts, args, kwargs, result, outer):
    _add(counts, "netsim.agg_retries", result.retries)


def _election_result(counts, args, kwargs, result, outer):
    _add(counts, "netsim.election_slots", result.slots_used)


PROBES: tuple[Probe, ...] = (
    Probe("geometry.deploy", "repro.geometry.deployment", "uniform_random"),
    Probe("state.build", "repro.state.network", "NetworkState.__init__"),
    Probe("state.build", "repro.sinr.arrays", "NodeArrayCache.__init__"),
    Probe("state.build", "repro.sinr.channel", "CachedChannel.__init__"),
    Probe("sinr.decode", "repro.sinr.channel", "Channel.resolve"),
    Probe("sinr.decode", "repro.sinr.channel", "Channel.resolve_indices"),
    Probe("sinr.decode", "repro.sinr.channel", "Channel.resolve_indices_full"),
    Probe("sinr.decode", "repro.sinr.channel", "Channel.resolve_indices_many"),
    Probe("sinr.decode", "repro.sinr.channel", "CachedChannel.resolve_indices"),
    Probe("sinr.decode", "repro.sinr.channel", "CachedChannel.resolve_indices_full"),
    Probe("sinr.decode", "repro.sinr.channel", "CachedChannel.resolve_indices_many"),
    Probe("sinr.feasibility", "repro.core.schedule", "Schedule.is_feasible"),
    Probe("sinr.feasibility", "repro.sinr.feasibility", "is_feasible"),
    Probe("runtime.step", "repro.runtime.simulator", "Simulator.step"),
    Probe("core.init", "repro.core.init_tree", "InitialTreeBuilder.build", _init_result),
    Probe("core.tvc", "repro.core.tree_via_capacity", "TreeViaCapacity.build"),
    Probe("core.distr_cap", "repro.core.distr_cap", "DistrCapSelector.select", _distr_cap_result),
    Probe(
        "core.power_solver",
        "repro.core.power_solver",
        "solve_power",
        on_error=InfeasiblePowerError,
    ),
    Probe("core.mean_power", "repro.core.mean_power_selection", "MeanPowerSelector.select"),
    Probe("core.power_control", "repro.core.power_control", "MeanPowerRescheduler.reschedule"),
    Probe("core.repair", "repro.core.repair", "TreeRepairer.integrate"),
    Probe("analysis.validate", "repro.analysis.validation", "validate_bitree"),
    Probe("analysis.replay", "repro.analysis.latency", "simulate_convergecast"),
    Probe("analysis.replay", "repro.analysis.latency", "simulate_broadcast"),
    Probe("netsim.fault", "repro.netsim.transport", "FaultyTransport.admit"),
    Probe("netsim.fault", "repro.netsim.transport", "FaultyTransport.heartbeat_delivered"),
    Probe("netsim.init_build", "repro.netsim.init_builder", "NetInitBuilder.build", _net_init_result),
    Probe("netsim.convergecast", "repro.netsim.aggregation", "run_convergecast", _convergecast_result),
    Probe("netsim.failover", "repro.netsim.election", "run_root_failover"),
    Probe("netsim.election", "repro.netsim.election", "BullyElection.elect", _election_result),
)

LAYERS = ("geometry", "state", "sinr", "runtime", "core", "analysis", "netsim")

#: Pass id under which the deployment is generated; ``geometry.deploy_s``
#: is read from it.
SETUP_PASS = -1

_P512 = "pipeline_s, slots_per_s on pipeline-512"
_I3K = "pipeline_s on init-3k"
_L512 = "pipeline_s, recovery_slots on lossy-512"
_ALL = "pipeline_s on every workload"

#: Per-layer metrics of the traced run: (name, unit, better, what it should move).
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    ("runtime.steps", "count", "lower", _P512),
    ("runtime.step_s", "s", "lower", _P512),
    ("runtime.self_s", "s", "lower", _P512),
    ("runtime.step_p50_us", "us", "lower", _P512),
    ("runtime.step_p99_us", "us", "lower", _P512),
    ("sinr.decode_calls", "count", "lower", _I3K),
    ("sinr.decode_s", "s", "lower", _I3K),
    ("sinr.decode_fast_ratio", "ratio", "higher", _I3K),
    ("sinr.feasibility_s", "s", "lower", _I3K),
    ("sinr.self_s", "s", "lower", _I3K),
    ("core.init.calls", "count", "lower", _ALL),
    ("core.init.build_s", "s", "lower", _ALL),
    ("core.init.sweeps", "count", "lower", _ALL),
    ("core.tvc.build_s", "s", "lower", "pipeline_s on pipeline-512"),
    ("core.distr_cap.select_s", "s", "lower", "pipeline_s on pipeline-512"),
    ("core.distr_cap.selected_ratio", "ratio", "higher", "pipeline_s on pipeline-512"),
    ("core.power_solver.solve_s", "s", "lower", "pipeline_s on pipeline-512"),
    ("core.power_solver.infeasible_ratio", "ratio", "lower", "pipeline_s on pipeline-512"),
    ("core.mean_power.select_s", "s", "lower", "pipeline_s on pipeline-512"),
    ("core.power_control.reschedule_s", "s", "lower", "pipeline_s on pipeline-512"),
    ("core.self_s", "s", "lower", _ALL),
    ("analysis.validate_s", "s", "lower", _I3K),
    ("analysis.replay_s", "s", "lower", _I3K),
    ("analysis.self_s", "s", "lower", _I3K),
    ("state.build_s", "s", "lower", "setup_s, peak_rss_mb on init-3k"),
    ("geometry.deploy_s", "s", "lower", "setup_s, peak_rss_mb on init-3k"),
    ("netsim.init_build_s", "s", "lower", _L512),
    ("netsim.fault_s", "s", "lower", _L512),
    ("netsim.fault_calls", "count", "lower", _L512),
    ("netsim.drops", "count", "lower", _L512),
    ("netsim.heartbeat_losses", "count", "lower", _L512),
    ("netsim.transmissions", "count", "lower", _L512),
    ("netsim.retries", "count", "lower", _L512),
    ("netsim.convergecast_s", "s", "lower", _L512),
    ("netsim.agg_retries", "count", "lower", _L512),
    ("netsim.failover_s", "s", "lower", _L512),
    ("netsim.election_slots", "count", "lower", _L512),
    ("netsim.self_s", "s", "lower", _L512),
    ("core.repair.calls", "count", "lower", _L512),
    ("core.repair.integrate_s", "s", "lower", _L512),
    ("trace_overhead", "ratio", "lower", "none: traced pipeline_s / untraced pipeline_s"),
)


class Tracer:
    """Records spans and counters around the probed entry points."""

    def __init__(self) -> None:
        self._pass_id = 0
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        # Span columns, one entry per span.
        self._probe: list[int] = []
        self._start: list[int] = []
        self._end: list[int] = []
        self._parent: list[int] = []
        self._pass: list[int] = []
        self._outer: list[bool] = []
        #: pass id -> counter name -> value.
        self.counts: dict[int, dict[str, float]] = {}

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every probe in; restore the originals on exit."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for index, probe in enumerate(PROBES):
                self._install(index, probe, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, index: int, probe: Probe, undo: list) -> None:
        module = importlib.import_module(probe.module)
        if "." in probe.attr:
            class_name, attr = probe.attr.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{probe.attr} is not a plain method")
            undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(index, probe, original))
            return
        original = getattr(module, probe.attr)
        wrapper = self._wrap(index, probe, original)
        # Re-exports (``from .power_solver import solve_power``) hold their
        # own reference: patch every repro module that names the function.
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    undo.append((other, key, original))
                    setattr(other, key, wrapper)

    def _wrap(self, index: int, probe: Probe, fn: Callable) -> Callable:
        group = probe.group
        hook = probe.on_result
        error_type = probe.on_error
        stack = self._stack
        opened = self._open
        opened.setdefault(group, 0)
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(self._start)
            outer = opened[group] == 0
            opened[group] += 1
            self._probe.append(index)
            self._parent.append(stack[-1] if stack else -1)
            self._pass.append(self._pass_id)
            self._outer.append(outer)
            self._end.append(0)
            stack.append(span)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as error:
                if error_type is not None and isinstance(error, error_type):
                    _add(self._pass_counts(), f"{group}.errors", 1)
                raise
            finally:
                self._end[span] = clock()
                stack.pop()
                opened[group] -= 1
            if hook is not None:
                hook(self._pass_counts(), args, kwargs, result, outer)
            return result

        return functools.wraps(fn)(traced)

    # -- recording -----------------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        """Attribute the following spans and counters to ``pass_id``."""
        self._pass_id = pass_id

    def _pass_counts(self) -> dict[str, float]:
        return self.counts.setdefault(self._pass_id, {})

    def _columns(self, pass_id: int) -> dict[str, np.ndarray]:
        sel = np.flatnonzero(np.asarray(self._pass, dtype=np.int64) == pass_id)
        parent = np.asarray(self._parent, dtype=np.int64)
        start = np.asarray(self._start, dtype=np.int64)
        end = np.asarray(self._end, dtype=np.int64)
        duration = (end - start).astype(np.float64) / 1e9
        child = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        probe = np.asarray(self._probe, dtype=np.int64)
        return {
            "probe": probe[sel],
            "duration": duration[sel],
            "self": (duration - child)[sel],
            "outer": np.asarray(self._outer, dtype=bool)[sel],
        }

    # -- metrics -------------------------------------------------------------

    def group_stats(self, pass_id: int) -> dict[str, dict[str, Any]]:
        """Per group: outermost calls (also per probed attribute), busy seconds,
        self seconds and the outermost spans' durations."""
        cols = self._columns(pass_id)
        stats: dict[str, dict[str, Any]] = {}
        for index, probe in enumerate(PROBES):
            mask = cols["probe"] == index
            entry = stats.setdefault(
                probe.group,
                {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [], "by_attr": {}},
            )
            outer = mask & cols["outer"]
            entry["calls"] += int(outer.sum())
            entry["busy_s"] += float(cols["duration"][outer].sum())
            entry["self_s"] += float(cols["self"][mask].sum())
            entry["durations"].append(cols["duration"][outer])
            entry["by_attr"][probe.attr] = int(outer.sum())
        for entry in stats.values():
            entry["durations"] = np.concatenate(entry["durations"])
        return stats

    def layer_self(self, pass_id: int) -> dict[str, float]:
        """Self seconds per layer: time in its spans not covered by children."""
        stats = self.group_stats(pass_id)
        totals = {layer: 0.0 for layer in LAYERS}
        for group, entry in stats.items():
            totals[group.split(".", 1)[0]] += entry["self_s"]
        return totals

    def write(self, path: str) -> None:
        """Write every span (gzip JSON, one column per field) and the counters."""
        payload = {
            "probes": [f"{p.group}:{p.module}.{p.attr}" for p in PROBES],
            "columns": ["probe", "start_ns", "end_ns", "parent", "pass"],
            "probe": self._probe,
            "start_ns": self._start,
            "end_ns": self._end,
            "parent": self._parent,
            "pass": self._pass,
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def per_layer_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Every ``PER_LAYER`` metric but ``trace_overhead``, from one traced pass.

    ``geometry.deploy_s`` comes from ``SETUP_PASS``, where the deployment was
    generated under the tracer.
    """
    stats = tracer.group_stats(pass_id)
    counts = tracer.counts.get(pass_id, {})
    own = tracer.layer_self(pass_id)

    def busy(group: str) -> float:
        return stats[group]["busy_s"]

    def calls(group: str) -> int:
        return stats[group]["calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps_us = stats["runtime.step"]["durations"] * 1e6
    decode = stats["sinr.decode"]
    fast = sum(v for attr, v in decode["by_attr"].items() if "resolve_indices" in attr)
    metrics = {
        "runtime.steps": calls("runtime.step"),
        "runtime.step_s": busy("runtime.step"),
        "runtime.self_s": own["runtime"],
        "runtime.step_p50_us": float(np.percentile(steps_us, 50)) if steps_us.size else 0.0,
        "runtime.step_p99_us": float(np.percentile(steps_us, 99)) if steps_us.size else 0.0,
        "sinr.decode_calls": decode["calls"],
        "sinr.decode_s": decode["busy_s"],
        "sinr.decode_fast_ratio": ratio(fast, decode["calls"]),
        "sinr.feasibility_s": busy("sinr.feasibility"),
        "sinr.self_s": own["sinr"],
        "core.init.calls": calls("core.init"),
        "core.init.build_s": busy("core.init"),
        "core.init.sweeps": counts.get("core.init.sweeps", 0),
        "core.tvc.build_s": busy("core.tvc"),
        "core.distr_cap.select_s": busy("core.distr_cap"),
        "core.distr_cap.selected_ratio": ratio(
            counts.get("core.distr_cap.selected", 0), counts.get("core.distr_cap.candidates", 0)
        ),
        "core.power_solver.solve_s": busy("core.power_solver"),
        "core.power_solver.infeasible_ratio": ratio(
            counts.get("core.power_solver.errors", 0), calls("core.power_solver")
        ),
        "core.mean_power.select_s": busy("core.mean_power"),
        "core.power_control.reschedule_s": busy("core.power_control"),
        "core.self_s": own["core"],
        "analysis.validate_s": busy("analysis.validate"),
        "analysis.replay_s": busy("analysis.replay"),
        "analysis.self_s": own["analysis"],
        "state.build_s": busy("state.build"),
        "geometry.deploy_s": tracer.group_stats(SETUP_PASS)["geometry.deploy"]["busy_s"],
        "netsim.init_build_s": busy("netsim.init_build"),
        "netsim.fault_s": busy("netsim.fault"),
        "netsim.fault_calls": calls("netsim.fault"),
        "netsim.convergecast_s": busy("netsim.convergecast"),
        "netsim.failover_s": busy("netsim.failover"),
        "netsim.self_s": own["netsim"],
        "core.repair.calls": calls("core.repair"),
        "core.repair.integrate_s": busy("core.repair"),
    }
    for key in (
        "netsim.drops",
        "netsim.heartbeat_losses",
        "netsim.transmissions",
        "netsim.retries",
        "netsim.agg_retries",
        "netsim.election_slots",
    ):
        metrics[key] = counts.get(key, 0)
    return metrics
