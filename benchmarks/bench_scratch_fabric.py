"""Scratch-arena decode benchmark (PR 5).

**Slot decode** - 256 agents x 2000 slots of SINR decode, with the pre-PR
oracle run alongside for parity.  The baseline is the PR-4 allocating path
(one ``resolve_indices_full`` per slot, ``np.ix_`` gathers + fresh
temporaries per call); the fast path stacks the slots in chunks through
``resolve_indices_many`` on a :class:`~repro.state.DecodeWorkspace` (one
row-take gather per chunk, ``out=`` kernels, zero steady-state allocation).
Outputs are asserted bit-identical per slot; the timed run enforces the
>= 2x acceptance floor.

Under ``--benchmark-disable`` (the blocking CI smoke) only the parity
checks run - wall-clock ratios on noisy shared runners must not gate
merges.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry import deployment_by_name
from repro.sinr import CachedChannel, SINRParameters
from repro.state import DecodeWorkspace

N_AGENTS = 256
N_SLOTS = 2000
N_TRANSMITTERS = 32
CHUNK = 50
DECODE_SPEEDUP_FLOOR = 2.0


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
