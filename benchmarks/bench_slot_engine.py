"""Slot-engine benchmark: vectorized batch engine vs the seed (PR-1) slot path.

Runs the same 256-agent, 2000-slot beacon workload twice:

* **fast**: batch engine, ``resolve_indices`` over the cached attenuation
  matrix, columnar counts trace;
* **seed**: the PR-1 slot path - the ``LegacySimulator`` oracle
  (per-object ``act``/``resolve``), cached node distances, and the seed
  per-listener decode loop (``decode_reference``) with the record trace;
  both oracles live in ``tests/oracles``.

In timed runs (``--benchmark-only``, ``scripts/run_benchmarks.py``, the
non-blocking CI micro-benchmark job) this asserts PR 2's acceptance
criterion: the fast path is at least 5x faster with identical channel
outcomes.  Under ``--benchmark-disable`` (the blocking CI collection smoke)
only the outcome-parity checks run - wall-clock ratios on noisy shared
runners must not gate merges.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry import deployment_by_name
from repro.runtime import NodeAgent, Simulator, spawn_agent_rngs
from repro.sinr import CachedChannel, Channel, SINRParameters, Transmission
from tests.oracles import LegacySimulator, decode_reference

N_AGENTS = 256
N_SLOTS = 2000
SPEEDUP_FLOOR = 5.0


class ProbeAgent(NodeAgent):
    """Deterministic beacon: transmits every 8th slot, staggered by node id."""

    def __init__(self, node, rng, power):
        super().__init__(node, rng)
        self.power = power
        self.phase = node.id % 8
        self.heard = 0

    def act_batch(self, slot):
        if slot & 7 == self.phase:
            return self.power, None
        return None

    def act(self, slot):
        action = self.act_batch(slot)
        if action is None:
            return None
        return Transmission(self.node, action[0], action[1])

    def observe(self, slot, reception):
        if reception is not None:
            self.heard += 1


class SeedDecodeChannel(CachedChannel):
    """The PR-1 channel: cached node distances, per-listener decode loop.

    Subclassing :class:`CachedChannel` keeps the baseline honest - the seed
    path already sliced a precomputed distance matrix; only the decode loop
    and the object marshalling were scalar.
    """

    def _decode(self, transmissions, active_listeners, dist, powers):
        return decode_reference(transmissions, active_listeners, dist, powers, self.params)


def _make_agents(params: SINRParameters) -> list[ProbeAgent]:
    nodes = deployment_by_name("uniform", N_AGENTS, np.random.default_rng(5))
    rngs = spawn_agent_rngs(np.random.default_rng(6), N_AGENTS)
    power = params.min_power_for(1.5)
    return [ProbeAgent(node, rng, power) for node, rng in zip(nodes, rngs)]


def _run_fast(params: SINRParameters, slots: int):
    agents = _make_agents(params)
    simulator = Simulator(agents, Channel(params), trace_level="counts")
    simulator.run(slots)
    return simulator.trace, [agent.heard for agent in agents]


def _run_seed(params: SINRParameters, slots: int):
    agents = _make_agents(params)
    channel = SeedDecodeChannel(params, [agent.node for agent in agents])
    simulator = LegacySimulator(agents, channel, trace_level="records")
    simulator.run(slots)
    return simulator.trace, [agent.heard for agent in agents]


def _timed(fn, repeats: int) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_same_outcomes(fast, seed, slots):
    fast_trace, fast_heard = fast
    seed_trace, seed_heard = seed
    assert fast_trace.slots_used == seed_trace.slots_used == slots
    assert fast_trace.transmissions_sent == seed_trace.transmissions_sent
    assert fast_trace.successful_receptions == seed_trace.successful_receptions
    assert fast_heard == seed_heard


def bench_slot_engine(benchmark):
    params = SINRParameters()

    if not benchmark.enabled:
        # Blocking CI smoke: check outcome parity on a shortened run, skip
        # the wall-clock assertion (shared runners are too noisy to gate on).
        slots = 200
        _assert_same_outcomes(_run_fast(params, slots), _run_seed(params, slots), slots)
        benchmark.pedantic(lambda: _run_fast(params, slots), rounds=1, iterations=1)
        return

    fast_time, fast = _timed(lambda: _run_fast(params, N_SLOTS), repeats=2)
    # Record the fast engine as the benchmark's headline number.
    benchmark.pedantic(lambda: _run_fast(params, N_SLOTS), rounds=1, iterations=1)
    seed_time, seed = _timed(lambda: _run_seed(params, N_SLOTS), repeats=2)
    _assert_same_outcomes(fast, seed, N_SLOTS)

    speedup = seed_time / fast_time
    print()
    print(
        f"slot engine {N_AGENTS} agents x {N_SLOTS} slots: "
        f"fast {fast_time:.3f}s, seed (PR-1) path {seed_time:.3f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized slot engine only {speedup:.1f}x faster than the seed "
        f"per-listener decode path (required: {SPEEDUP_FLOOR}x)"
    )
