"""Tiled geometry store benchmarks: past the O(n^2) wall, and not slower before it.

Two claims, each asserted in every mode:

* **Scale** (``bench_tiled_decode_50k``): an E1-style decode workload -
  slot groups resolved over the whole universe - completes at
  ``n = 50,000`` with the tiled store's row caches inside a 256 MiB
  budget, where the dense
  store *provably cannot allocate*: its distance + attenuation matrices
  alone need ``2 * n^2 * 8`` bytes (40 GB at 50k), asserted arithmetically
  against the budget because Linux overcommit would let a live allocation
  "succeed" and then OOM on first touch.
* **No regression at small n** (``bench_tiled_vs_dense_4096``): replaying a
  fixed slot schedule (what a computed schedule does every sweep) at
  ``n = 4096``, the tiled store decodes bitwise-identically to dense and
  within ``RUNTIME_RATIO_CEILING`` of its steady-state runtime.

Timed runs also print a same-n speed/memory curve (dense vs tiled) so the
crossover is visible in the benchmark log.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry import deployment_by_name
from repro.sinr import CachedChannel, SINRParameters
from repro.state import DecodeWorkspace, NetworkState, TiledNetworkState

#: The headline scale; the dense store would need 40 GB of matrices here.
N_LARGE = 50_000
#: Byte budget for the tiled store's row caches at the large n.
LARGE_BUDGET_BYTES = 256 * 1024 * 1024
#: Same-n comparison size (dense still comfortable: 268 MB of matrices).
N_COMPARE = 4096
#: Steady-state tiled runtime must stay within this factor of dense.
RUNTIME_RATIO_CEILING = 1.25

SLOT_GROUPS = 32
GROUP_SIZE = 64
SWEEPS = 3


def _schedule(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """A fixed slot schedule: SLOT_GROUPS groups of GROUP_SIZE transmitters."""
    size = min(GROUP_SIZE, max(1, n // 4))
    return [
        rng.choice(n, size=size, replace=False).astype(np.intp)
        for _ in range(SLOT_GROUPS)
    ]


def _run_sweep(
    channel: CachedChannel,
    schedule: list[np.ndarray],
    workspace: DecodeWorkspace,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Resolve every slot group over the whole universe; collect (best, ok)."""
    out = []
    for slot, tx in enumerate(schedule):
        powers = np.full(tx.size, 2.0)
        best, _, ok = channel.resolve_indices_full(tx, powers, slot=slot, workspace=workspace)
        out.append((np.asarray(best).copy(), np.asarray(ok).copy()))
    return out


def bench_tiled_decode_50k(benchmark):
    n = N_LARGE if benchmark.enabled else 2000
    budget = LARGE_BUDGET_BYTES if benchmark.enabled else 4 * 1024 * 1024
    params = SINRParameters()
    rng = np.random.default_rng(29)
    nodes = deployment_by_name("uniform", n, rng)

    # The memory claim, stated arithmetically: the dense store's two
    # matrices cannot fit the budget (overcommit makes a live `np.empty`
    # "succeed" at 40 GB, so allocation failure is not a reliable oracle).
    dense_matrix_bytes = 2 * n * n * 8
    assert dense_matrix_bytes > budget, (
        f"n={n} dense matrices ({dense_matrix_bytes / 1e9:.1f} GB) fit the "
        f"{budget / 1e6:.0f} MB budget; the scale claim is vacuous here"
    )

    state = TiledNetworkState(nodes, budget_bytes=budget)
    channel = CachedChannel(params, cache=None, state=state)
    schedule = _schedule(n, np.random.default_rng(31))
    workspace = DecodeWorkspace()

    def decode_sweeps() -> int:
        decoded = 0
        for _ in range(SWEEPS if benchmark.enabled else 1):
            for best, ok in _run_sweep(channel, schedule, workspace):
                decoded += int(ok.sum())
        return decoded

    start = time.perf_counter()
    decode_sweeps()
    first_pass = time.perf_counter() - start

    resident = state.resident_bytes()
    assert resident <= budget, (
        f"tiled row caches ({resident / 1e6:.1f} MB) exceeded the "
        f"{budget / 1e6:.0f} MB budget"
    )

    if not benchmark.enabled:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return

    benchmark.pedantic(decode_sweeps, rounds=1, iterations=1)
    print()
    print(
        f"tiled decode at n={n}: {SLOT_GROUPS} slot groups x {SWEEPS} sweeps in "
        f"{first_pass:.2f}s cold; resident {resident / 1e6:.1f} MB of a "
        f"{budget / 1e6:.0f} MB budget (dense would need {dense_matrix_bytes / 1e9:.1f} GB)"
    )


def bench_tiled_vs_dense_4096(benchmark):
    n = N_COMPARE if benchmark.enabled else 512
    params = SINRParameters()
    nodes = deployment_by_name("uniform", n, np.random.default_rng(41))
    schedule = _schedule(n, np.random.default_rng(43))

    # Both stores are built explicitly: past the size rule's boundary the
    # default would pick the tiled store for both channels.
    dense_channel = CachedChannel(params, state=NetworkState(nodes))
    tiled_channel = CachedChannel(params, state=TiledNetworkState(nodes))
    dense_ws, tiled_ws = DecodeWorkspace(), DecodeWorkspace()

    # Warm sweep: dense materializes its matrices, tiled fills its row cache.
    _run_sweep(dense_channel, schedule, dense_ws)
    _run_sweep(tiled_channel, schedule, tiled_ws)

    start = time.perf_counter()
    for _ in range(SWEEPS):
        dense_out = _run_sweep(dense_channel, schedule, dense_ws)
    dense_time = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(SWEEPS):
        tiled_out = _run_sweep(tiled_channel, schedule, tiled_ws)
    tiled_time = time.perf_counter() - start

    # Near-field (decode) parity is bitwise, every slot group.
    for (dense_best, dense_ok), (tiled_best, tiled_ok) in zip(dense_out, tiled_out):
        assert np.array_equal(dense_best, tiled_best)
        assert np.array_equal(dense_ok, tiled_ok)

    if not benchmark.enabled:
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        return

    def tiled_sweeps():
        for _ in range(SWEEPS):
            _run_sweep(tiled_channel, schedule, tiled_ws)

    benchmark.pedantic(tiled_sweeps, rounds=1, iterations=1)

    dense_state = dense_channel.cache.state
    dense_bytes = (
        dense_state.distance_matrix().nbytes
        + dense_state.attenuation_matrix(params.alpha).nbytes
    )
    tiled_state = tiled_channel.cache.state
    assert isinstance(tiled_state, TiledNetworkState)
    ratio = tiled_time / dense_time
    print()
    print(f"same-n speed/memory, steady-state schedule replay ({SWEEPS} sweeps):")
    print(
        f"  n={n}  dense {dense_time * 1e3:7.1f}ms {dense_bytes / 1e6:8.1f}MB | "
        f"tiled {tiled_time * 1e3:7.1f}ms {tiled_state.resident_bytes() / 1e6:8.1f}MB | "
        f"ratio {ratio:.3f}"
    )
    assert ratio <= RUNTIME_RATIO_CEILING, (
        f"tiled steady-state decode {ratio:.2f}x dense at n={n} "
        f"(ceiling: {RUNTIME_RATIO_CEILING}x)"
    )
