"""Slot-engine benchmark: the array engine vs the seed slot path.

Runs the same 256-node, 2000-slot beacon workload twice:

* **fast**: ``Simulator`` stepping the beacon as one lockstep program,
  ``resolve_indices_full`` over the cached attenuation matrix, columnar
  trace;
* **seed**: the original slot path - the ``LegacySimulator`` oracle stepping
  the beacon as one agent per node (per-object ``act``/``resolve``), cached
  node distances, and the seed per-listener decode loop
  (``decode_reference``); both oracles live in ``tests/oracles``.

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
from repro.runtime import Simulator
from repro.sinr import CachedChannel, Channel, SINRParameters
from tests.beacon import BeaconAgent, BeaconProgram
from tests.oracles import LegacySimulator, decode_reference

N_AGENTS = 256
N_SLOTS = 2000
SPEEDUP_FLOOR = 5.0
#: Every node beacons every 8th slot, staggered by node id.
PERIOD = 8


class SeedDecodeChannel(CachedChannel):
    """The seed channel: cached node distances, per-listener decode loop.

    Subclassing :class:`CachedChannel` keeps the baseline honest - the seed
    path already sliced a precomputed distance matrix; only the decode loop
    and the object marshalling were scalar.  ``oracle_calls`` counts the
    slots decoded by ``decode_reference``.
    """

    __slots__ = ("oracle_calls",)

    def __init__(self, params, nodes):
        super().__init__(params, nodes)
        self.oracle_calls = 0

    def resolve(self, transmissions, listeners, slot=None):
        busy = {t.sender.id for t in transmissions}
        active = [node for node in listeners if node.id not in busy]
        if not transmissions or not active:
            return {}
        index = self.cache.index_of_id
        tx = [index(t.sender.id) for t in transmissions]
        rx = [index(node.id) for node in active]
        dist = self.cache.distance_matrix()[np.ix_(tx, rx)]
        powers = np.array([t.power for t in transmissions], dtype=float)
        self.oracle_calls += 1
        return decode_reference(transmissions, active, dist, powers, self.params)


def _nodes():
    return deployment_by_name("uniform", N_AGENTS, np.random.default_rng(5))


def _run_fast(params: SINRParameters, slots: int):
    program = BeaconProgram(_nodes(), params.min_power_for(1.5), period=PERIOD)
    simulator = Simulator(program, Channel(params))
    simulator.run(slots)
    return simulator.trace, [len(frames) for frames in program.heard]


def _run_seed(params: SINRParameters, slots: int):
    nodes = _nodes()
    rngs = np.random.default_rng(6).spawn(N_AGENTS)
    power = params.min_power_for(1.5)
    agents = [BeaconAgent(node, rng, power, period=PERIOD) for node, rng in zip(nodes, rngs)]
    channel = SeedDecodeChannel(params, nodes)
    simulator = LegacySimulator(agents, channel)
    simulator.run(slots)
    # Every slot has beacons and listeners, so each one ran the oracle loop.
    assert channel.oracle_calls == slots
    return simulator.trace, [len(agent.heard) for agent in agents]


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
