"""Scratch-arena decode and shared-memory trial-fabric benchmarks (PR 5).

Two workloads, each with its pre-PR oracle run alongside for parity:

* **slot decode** - 256 agents x 2000 slots of SINR decode.  The baseline
  is the PR-4 allocating path (one ``resolve_indices_full`` per slot,
  ``np.ix_`` gathers + fresh temporaries per call); the fast path stacks
  the slots in chunks through ``resolve_indices_many`` on a
  :class:`~repro.state.DecodeWorkspace` (one row-take gather per chunk,
  ``out=`` kernels, zero steady-state allocation).  Outputs are asserted
  bit-identical per slot; the timed run enforces the >= 2x acceptance
  floor.
* **trial fabric** - an 8-trial Monte-Carlo sweep over one shared
  256-node geometry.  The baseline is the pre-PR cold path (a fresh
  ``ProcessPoolExecutor`` per sweep, the O(n^2) matrices pickled into
  every task); the fast path runs on the persistent shared-memory fabric
  (pool created once, matrices exported once, zero-copy in workers,
  chunked tasks).  Results are asserted identical to the sequential run
  and to the cold pool; the timed run enforces the >= 1.5x floor.

Under ``--benchmark-disable`` (the blocking CI smoke) only the parity
checks run - wall-clock ratios on noisy shared runners must not gate
merges.
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments import map_trials, shared_state
from repro.geometry import deployment_by_name
from repro.sinr import CachedChannel, NodeArrayCache, SINRParameters
from repro.state import DecodeWorkspace, NetworkState
from repro.dynamics import RayleighFading
from tests.oracles import map_trials_cold

N_AGENTS = 256
N_SLOTS = 2000
N_TRANSMITTERS = 32
CHUNK = 50
DECODE_SPEEDUP_FLOOR = 2.0

N_TRIALS = 8
TRIAL_STACK = 24
FABRIC_WORKERS = 2
FABRIC_SPEEDUP_FLOOR = 1.5


# -- slot decode: workspace + stacked kernels vs the PR-4 allocating path ----


def _decode_setup(slots: int):
    params = SINRParameters()
    nodes = deployment_by_name("uniform", N_AGENTS, np.random.default_rng(5))
    channel = CachedChannel(params, nodes)
    tx = np.arange(0, N_AGENTS, N_AGENTS // N_TRANSMITTERS, dtype=np.intp)
    base = params.min_power_for(1.5)
    # Deterministic per-slot power ramp: every slot decodes differently, so
    # the stacked path cannot cheat by reusing a slot's result.
    powers = base * (1.0 + 0.25 * ((np.arange(slots * len(tx)) % 97) / 97.0)).reshape(
        slots, len(tx)
    )
    # Materialize the attenuation store once, outside timing - both paths
    # gather from the same state matrices (that was PR 4's contribution).
    channel.cache.state.attenuation_matrix(params.alpha)
    return channel, tx, powers


def _run_decode_allocating(channel, tx, powers):
    """PR-4 path: one allocating full-universe decode per slot."""
    outputs = []
    for slot in range(powers.shape[0]):
        best, sinr, ok = channel.resolve_indices_full(tx, powers[slot], slot=slot)
        outputs.append((best, sinr, ok))
    return outputs


def _run_decode_stacked(channel, tx, powers):
    """PR-5 path: slots decoded in stacked chunks on one scratch arena."""
    workspace = DecodeWorkspace()
    outputs = []
    slots = powers.shape[0]
    for start in range(0, slots, CHUNK):
        stop = min(start + CHUNK, slots)
        best, sinr, ok = channel.resolve_indices_many(
            tx,
            powers[start:stop],
            slots=np.arange(start, stop, dtype=np.int64),
            workspace=workspace,
        )
        # The stacked outputs are workspace views; snapshot each chunk
        # before the next one reuses the buffers (real consumers reduce the
        # chunk immediately and skip even this copy).
        outputs.append((best.copy(), sinr.copy(), ok.copy()))
    return outputs


def _assert_decode_parity(fast_chunks, baseline):
    flat = [
        (best[row], sinr[row], ok[row])
        for best, sinr, ok in fast_chunks
        for row in range(best.shape[0])
    ]
    assert len(flat) == len(baseline)
    for (fb, fs, fo), (bb, bs, bo) in zip(flat, baseline):
        assert np.array_equal(fb, bb)
        assert np.array_equal(fs, bs, equal_nan=True)
        assert np.array_equal(fo, bo)


def _timed(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_scratch_decode(benchmark):
    if not benchmark.enabled:
        # Blocking CI smoke: parity on a shortened run, no wall-clock gate.
        channel, tx, powers = _decode_setup(200)
        _assert_decode_parity(
            _run_decode_stacked(channel, tx, powers),
            _run_decode_allocating(channel, tx, powers),
        )
        benchmark.pedantic(
            lambda: _run_decode_stacked(channel, tx, powers), rounds=1, iterations=1
        )
        return

    channel, tx, powers = _decode_setup(N_SLOTS)
    fast_time, fast = _timed(lambda: _run_decode_stacked(channel, tx, powers), repeats=3)
    benchmark.pedantic(
        lambda: _run_decode_stacked(channel, tx, powers), rounds=1, iterations=1
    )
    base_time, baseline = _timed(
        lambda: _run_decode_allocating(channel, tx, powers), repeats=3
    )
    _assert_decode_parity(fast, baseline)

    speedup = base_time / fast_time
    print()
    print(
        f"slot decode {N_AGENTS} agents x {N_SLOTS} slots: "
        f"stacked+workspace {fast_time:.3f}s, PR-4 allocating path {base_time:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= DECODE_SPEEDUP_FLOOR, (
        f"scratch/stacked decode only {speedup:.1f}x over the PR-4 allocating "
        f"path (required: {DECODE_SPEEDUP_FLOOR}x)"
    )


# -- trial fabric: persistent shared-memory pool vs cold pickle-per-trial ----


def _fabric_state() -> tuple[NetworkState, SINRParameters]:
    params = SINRParameters()
    nodes = deployment_by_name("uniform", N_AGENTS, np.random.default_rng(7))
    state = NetworkState(nodes)
    state.distance_matrix()
    state.attenuation_matrix(params.alpha)
    return state, params


def _mc_trial(state: NetworkState, seed: int) -> tuple[int, float, int]:
    """One Monte-Carlo trial over a shared geometry store.

    Draws a seeded transmitter set and power stack, decodes ``TRIAL_STACK``
    Rayleigh-faded slots in one stacked pass, and reduces to a digest that
    is bitwise comparable across processes.
    """
    params = SINRParameters(gain_model=RayleighFading(seed=seed))
    rng = np.random.default_rng(4200 + seed)
    cache = NodeArrayCache(state=state)
    channel = CachedChannel(params, cache=cache)
    tx = np.sort(
        rng.choice(len(cache), size=N_TRANSMITTERS, replace=False).astype(np.intp)
    )
    powers = params.min_power_for(1.5) * (
        1.0 + rng.random((TRIAL_STACK, N_TRANSMITTERS))
    )
    best, sinr, ok = channel.resolve_indices_many(
        tx, powers, slots=np.arange(TRIAL_STACK, dtype=np.int64)
    )
    finite = np.isfinite(sinr)
    return int(ok.sum()), float(sinr[finite].sum()), int(best.sum())


def _fabric_trial(args: tuple[int, int]) -> tuple[int, float, int]:
    """Fabric-path trial: geometry arrives zero-copy via the sweep broadcast."""
    (seed,) = args
    state = shared_state()
    assert state is not None, "trial ran outside a state-broadcast sweep"
    return _mc_trial(state, seed)


def _cold_trial(args) -> tuple[int, float, int]:
    """Cold-path trial: the O(n^2) matrices arrive pickled inside the task."""
    xy, ids, dist, att, alpha, seed = args
    state = NetworkState.from_arrays(xy, ids, distances=dist, attenuation={alpha: att})
    return _mc_trial(state, seed)


def _run_fabric_sweep(state: NetworkState):
    return map_trials(
        _fabric_trial,
        [(seed,) for seed in range(N_TRIALS)],
        workers=FABRIC_WORKERS,
        state=state,
        # Ship the d**alpha store alongside so workers decode straight from
        # the broadcast instead of re-deriving it from the shared distances.
        state_alphas=(SINRParameters().alpha,),
    )


def _run_cold_sweep(state: NetworkState, alpha: float):
    n = len(state)
    xy = state.xy[:n].copy()
    ids = state.ids[:n].copy()
    dist = state.distance_matrix()[:n, :n].copy()
    att = state.attenuation_matrix(alpha)[:n, :n].copy()
    return map_trials_cold(
        _cold_trial,
        [(xy, ids, dist, att, alpha, seed) for seed in range(N_TRIALS)],
        workers=FABRIC_WORKERS,
    )


def bench_trial_fabric(benchmark):
    state, params = _fabric_state()
    sequential = [_mc_trial(state, seed) for seed in range(N_TRIALS)]

    if not benchmark.enabled:
        # Blocking CI smoke: every path must agree bit-for-bit; no timing.
        assert _run_fabric_sweep(state) == sequential
        assert _run_cold_sweep(state, params.alpha) == sequential
        benchmark.pedantic(lambda: _run_fabric_sweep(state), rounds=1, iterations=1)
        return

    # Warm the persistent pool once (that is the fabric's whole point: a
    # run's first sweep pays pool start-up, every later sweep reuses it);
    # the cold path pays creation + pickling on every sweep by design.
    warm = _run_fabric_sweep(state)
    assert warm == sequential

    fabric_time, fabric_rows = _timed(lambda: _run_fabric_sweep(state), repeats=2)
    benchmark.pedantic(lambda: _run_fabric_sweep(state), rounds=1, iterations=1)
    cold_time, cold_rows = _timed(lambda: _run_cold_sweep(state, params.alpha), repeats=2)
    assert fabric_rows == sequential
    assert cold_rows == sequential

    speedup = cold_time / fabric_time
    print()
    print(
        f"trial fabric {N_TRIALS} trials x {N_AGENTS} nodes (workers={FABRIC_WORKERS}): "
        f"shared-memory pool {fabric_time:.3f}s, cold pickle pool {cold_time:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= FABRIC_SPEEDUP_FLOOR, (
        f"shared-memory fabric only {speedup:.1f}x over the cold pickle-per-trial "
        f"pool (required: {FABRIC_SPEEDUP_FLOOR}x)"
    )
