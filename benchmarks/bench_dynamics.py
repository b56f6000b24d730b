"""Dynamics benchmarks: fading decode overhead + incremental cache moves.

Two micro-benchmarks for the PR-3 dynamics subsystem:

* **bench_dynamics_fading_decode** - the batch slot engine running a beacon
  workload under per-slot Rayleigh fading.  Timed as the headline number;
  in all modes it asserts the two correctness anchors: the deterministic
  gain model is bit-identical to no model at all, and the same fading seed
  reproduces identical outcomes.
* **bench_dynamics_mobility_invalidation** - moving ``k`` of ``n`` nodes via
  :meth:`NodeArrayCache.update_positions` (O(k * n) row/column patching of
  the cached distance + attenuation matrices) against rebuilding the caches
  from scratch (O(n^2)).  In timed runs it asserts the incremental path is
  at least ``INVALIDATION_SPEEDUP_FLOOR`` times faster; parity with the
  rebuilt matrices is asserted bitwise in every mode.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dynamics import DeterministicPathLoss, RayleighFading
from repro.geometry import deployment_by_name
from repro.runtime import NodeAgent, Simulator, spawn_agent_rngs
from repro.sinr import Channel, NodeArrayCache, SINRParameters, Transmission

N_AGENTS = 128
N_SLOTS = 600
N_CACHE_NODES = 512
N_MOVERS = 16
MOVE_ROUNDS = 25
INVALIDATION_SPEEDUP_FLOOR = 3.0


class _Beacon(NodeAgent):
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


def _run_beacons(params: SINRParameters, slots: int):
    nodes = deployment_by_name("uniform", N_AGENTS, np.random.default_rng(15))
    rngs = spawn_agent_rngs(np.random.default_rng(16), N_AGENTS)
    power = params.min_power_for(1.5)
    agents = [_Beacon(node, rng, power) for node, rng in zip(nodes, rngs)]
    simulator = Simulator(agents, Channel(params), trace_level="counts")
    simulator.run(slots)
    return simulator.trace.successful_receptions, [agent.heard for agent in agents]


def bench_dynamics_fading_decode(benchmark):
    params = SINRParameters()
    slots = 120 if not benchmark.enabled else N_SLOTS

    plain = _run_beacons(params, slots)
    tagged = _run_beacons(params.with_overrides(gain_model=DeterministicPathLoss()), slots)
    assert plain == tagged, "deterministic gain model must be bit-identical to no model"

    faded_params = params.with_overrides(gain_model=RayleighFading(seed=7))
    first = _run_beacons(faded_params, slots)
    second = _run_beacons(faded_params, slots)
    assert first == second, "same fading seed must reproduce identical outcomes"
    assert first != plain, "per-slot Rayleigh fading must perturb outcomes"

    benchmark.pedantic(lambda: _run_beacons(faded_params, slots), rounds=1, iterations=1)


def _materialized_cache(alpha: float) -> NodeArrayCache:
    nodes = deployment_by_name("uniform", N_CACHE_NODES, np.random.default_rng(17))
    cache = NodeArrayCache(nodes)
    cache.distance_matrix()
    cache.attenuation_matrix(alpha)
    return cache


def _move_rounds(rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    moves = []
    for _ in range(MOVE_ROUNDS):
        indices = rng.choice(N_CACHE_NODES, size=N_MOVERS, replace=False).astype(np.intp)
        deltas = rng.normal(0.0, 1.0, size=(N_MOVERS, 2))
        moves.append((indices, deltas))
    return moves


def bench_dynamics_mobility_invalidation(benchmark):
    params = SINRParameters()
    cache = _materialized_cache(params.alpha)
    moves = _move_rounds(np.random.default_rng(18))

    def incremental():
        for indices, deltas in moves:
            cache.update_positions(indices, cache.xy[indices] + deltas)

    def rebuild():
        # The pre-PR-3 answer to movement: throw the caches away and pay the
        # O(n^2) distance + attenuation materialization again per step.
        rebuilt = None
        for _ in moves:
            rebuilt = NodeArrayCache(list(cache.nodes))
            rebuilt.distance_matrix()
            rebuilt.attenuation_matrix(params.alpha)
        return rebuilt

    if not benchmark.enabled:
        # Blocking CI smoke: bitwise parity of the patched matrices only.
        indices, deltas = moves[0]
        cache.update_positions(indices, cache.xy[indices] + deltas)
        fresh = NodeArrayCache(cache.nodes)
        assert np.array_equal(cache.distance_matrix(), fresh.distance_matrix())
        assert np.array_equal(
            cache.attenuation_matrix(params.alpha), fresh.attenuation_matrix(params.alpha)
        )
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return

    start = time.perf_counter()
    incremental()
    incremental_time = time.perf_counter() - start

    fresh = NodeArrayCache(cache.nodes)
    assert np.array_equal(cache.distance_matrix(), fresh.distance_matrix())
    assert np.array_equal(
        cache.attenuation_matrix(params.alpha), fresh.attenuation_matrix(params.alpha)
    )

    start = time.perf_counter()
    rebuild()
    rebuild_time = time.perf_counter() - start

    benchmark.pedantic(incremental, rounds=1, iterations=1)
    speedup = rebuild_time / incremental_time
    print()
    print(
        f"mobility invalidation {N_MOVERS}/{N_CACHE_NODES} movers x {MOVE_ROUNDS} rounds: "
        f"incremental {incremental_time * 1e3:.1f}ms, rebuild {rebuild_time * 1e3:.1f}ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= INVALIDATION_SPEEDUP_FLOOR, (
        f"incremental invalidation only {speedup:.1f}x faster than a full rebuild "
        f"(required: {INVALIDATION_SPEEDUP_FLOOR}x)"
    )
