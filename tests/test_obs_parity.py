"""Telemetry parity: observing a run never changes it.

Two invariants from the observability contract, pinned on a lockstep
experiment (E1) and a netsim experiment (E13):

* *results are bit-identical with telemetry on vs. off* — the instruments
  never touch an RNG or mutate an input, at any worker count, even with
  kernel timers installed; and
* *counters merge exactly across worker counts* — every counter is a
  deterministic consequence of the simulated protocol, and the trial
  fabric's payload merge is a commutative sum, so workers=1 and workers=2
  produce identical counter snapshots (spans are wall-clock and excluded).

The array ``Init`` engine also reports the same slot counters as the
per-agent protocol it replaces.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import InitialTreeBuilder
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig
from repro.geometry import uniform_random
from repro.obs import OBS, MetricsRegistry, instrument_kernels, telemetry
from repro.sinr import SINRParameters

from .oracles import build_init_reference

E1_CONFIG = ExperimentConfig(sizes=(16, 24), seeds=(1,))
E13_CONFIG = ExperimentConfig(sizes=(16,), seeds=(1,))

CASES = [("E1", E1_CONFIG), ("E13", E13_CONFIG)]


@pytest.fixture(autouse=True)
def _quiet_telemetry():
    """Every test starts and ends with telemetry off and a fresh registry."""
    previous = (OBS.enabled, OBS.registry)
    OBS.enabled = False
    OBS.registry = MetricsRegistry()
    yield
    OBS.enabled, OBS.registry = previous


def run_case(experiment_id, config, *, enabled, workers):
    runner = ALL_EXPERIMENTS[experiment_id]
    config = dataclasses.replace(config, workers=workers)
    if not enabled:
        return runner(config), None
    with telemetry() as registry:
        result = runner(config)
    return result, registry


def comparable(result):
    """Everything a result carries except object identity."""
    return (result.experiment_id, result.title, result.rows, result.summary)


@pytest.mark.parametrize("experiment_id,config", CASES)
@pytest.mark.parametrize("workers", [1, 2])
class TestOnOffParity:
    def test_results_bit_identical_with_kernel_timers(self, experiment_id, config, workers):
        off, _ = run_case(experiment_id, config, enabled=False, workers=workers)
        with instrument_kernels():
            on, registry = run_case(experiment_id, config, enabled=True, workers=workers)
        assert comparable(on) == comparable(off)
        totals = registry.counter_totals()
        assert totals.get("kernel.calls", 0) > 0
        assert totals.get("sim.slots", 0) > 0
        if experiment_id == "E13":
            assert totals.get("netsim.slots", 0) > 0
            assert totals.get("netsim.sends", 0) > 0


@pytest.mark.parametrize("experiment_id,config", CASES)
class TestWorkerCountParity:
    def test_counters_merge_exactly_across_worker_counts(self, experiment_id, config):
        solo, solo_registry = run_case(experiment_id, config, enabled=True, workers=1)
        duo, duo_registry = run_case(experiment_id, config, enabled=True, workers=2)
        assert comparable(solo) == comparable(duo)
        assert solo_registry.snapshot()["counters"] == duo_registry.snapshot()["counters"]


class TestInitEngineCounters:
    def test_slot_counters_match_per_agent_protocol(self):
        nodes = uniform_random(40, np.random.default_rng(6))
        builder = InitialTreeBuilder(SINRParameters())
        with telemetry() as engine_registry:
            builder.build(nodes, np.random.default_rng(1))
        with telemetry() as oracle_registry:
            build_init_reference(builder, nodes, np.random.default_rng(1))
        keys = ("sim.slots", "sim.transmissions", "sim.receptions")
        engine = engine_registry.counter_totals()
        oracle = oracle_registry.counter_totals()
        assert engine["sim.slots"] > 0 and engine["sim.receptions"] > 0
        assert [engine.get(key) for key in keys] == [oracle.get(key) for key in keys]
