"""Slab parallelism (``repro.state.slabs``): bit-identical at every worker count.

The row-cache fill and the whole-universe decode split their blocks
into slabs whose bounds depend only on the block's shape, and run them on
``slab_workers()`` threads.  These tests pin:

* the fill and the decode equal the one-slab result bitwise at 1, 2 and 3
  workers (Hypothesis: slab sizes with uneven edges, ``_decoded_only`` on
  and off, colocated transmitter columns, k from 1 past the row budget,
  three gain models), and so does the dense store's decode in slabs at 1
  and 2 workers;
* Init on a ~2,500-node tiled store gives the same tree, trace and slots at
  1 and 2 workers, and telemetry counts the same at both;
* a worker thread raises no RuntimeWarning under ``-W error``;
* a fork-started process after the pool has run finishes, with its slabs
  inline.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import warnings
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InitialTreeBuilder
from repro.dynamics.gain import LogNormalShadowing, RayleighFading
from repro.geometry import Node, Point, uniform_random
from repro.obs import instrument_kernels, telemetry
from repro.sinr import CachedChannel, SINRParameters
from repro.state import NetworkState, TiledNetworkState, slabs
from repro.state.kernels import (
    attenuation_from_distances,
    fill_attenuation_rows,
    pairwise_distances,
)

WORKER_COUNTS = (1, 2, 3)
GAIN_MODELS = {
    "none": None,
    "shadowing": LogNormalShadowing(sigma_db=6.0, seed=3),
    "rayleigh": RayleighFading(seed=5),
}
#: Large enough that every block in these tests is one slab.
ONE_SLAB = 1 << 40


@contextmanager
def slab_config(slab_bytes: int, workers: int) -> Iterator[None]:
    """Run with ``SLAB_BYTES`` and the worker count set, then restore both."""
    saved = slabs.SLAB_BYTES
    slabs.SLAB_BYTES = slab_bytes
    slabs.set_slab_workers(workers)
    try:
        yield
    finally:
        slabs.SLAB_BYTES = saved
        slabs.set_slab_workers(None)


def _nodes(xy: np.ndarray) -> list[Node]:
    return [Node(100 + i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


class TestSlabBounds:
    @given(total=st.integers(0, 600), unit=st.integers(1, 1 << 22), slab=st.integers(1, 1 << 21))
    def test_bounds_cover_the_range_in_slabs_of_two_or_more(self, total, unit, slab):
        saved = slabs.SLAB_BYTES
        slabs.SLAB_BYTES = slab
        try:
            bounds = slabs.slab_bounds(total, unit)
        finally:
            slabs.SLAB_BYTES = saved
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
        widths = [hi - lo for lo, hi in bounds]
        if len(bounds) > 1:
            # A one-column decode slab would sum pairwise, not in row order.
            assert min(widths) >= 2
            assert max(widths) - min(widths) <= 1
            assert min(widths) * unit <= max(slab, 4 * unit)

    def test_one_slab_for_a_block_within_the_slab_size(self):
        assert slabs.slab_bounds(512, 8 * 256) == [(0, 512)]
        assert len(slabs.slab_bounds(512, 8 * 512)) == 2

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError):
            slabs.set_slab_workers(0)

    def test_errors_reach_the_caller_after_every_slab_ran(self):
        ran: list[int] = []

        def body(lo: int, hi: int) -> None:
            ran.append(lo)
            if lo == 4:
                raise KeyError(lo)

        with slab_config(slabs.SLAB_BYTES, 2):
            with pytest.raises(KeyError):
                slabs.run_slabs(body, [(i, i + 1) for i in range(8)])
        assert sorted(ran) == list(range(8))

    def test_every_slab_runs_once_under_thread_switch_stress(self):
        # More workers than cores and a tiny switch interval: the shared
        # slab queue must hand each slab to exactly one thread.
        bounds = [(i, i + 1) for i in range(4000)]
        runs = np.zeros(len(bounds), dtype=np.int64)

        def body(lo: int, hi: int) -> None:
            runs[lo:hi] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with slab_config(slabs.SLAB_BYTES, 6):
                for _ in range(5):
                    worker = threading.Thread(target=slabs.run_slabs, args=(body, bounds))
                    worker.start()
                    worker.join(timeout=30)
                    assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert (runs == 5).all()


class TestFillParity:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 60),
        cols=st.integers(1, 40),
        slab_rows=st.integers(1, 20),
        alpha=st.sampled_from([2.0, 3.0, 4.5]),
        seed=st.integers(0, 2**16),
    )
    def test_fill_is_bitwise_the_one_slab_fill(self, rows, cols, slab_rows, alpha, seed):
        rng = np.random.default_rng(seed)
        xy_cols = rng.uniform(0.0, 50.0, size=(cols, 2))
        xy_rows = rng.uniform(0.0, 50.0, size=(rows, 2))
        xy_rows[: min(rows, cols) // 2] = xy_cols[: min(rows, cols) // 2]  # colocated pairs
        expected = attenuation_from_distances(pairwise_distances(xy_rows, xy_cols), alpha)
        with slab_config(ONE_SLAB, 1):
            single = fill_attenuation_rows(np.empty((rows, cols)), xy_rows, xy_cols, alpha)
        assert np.array_equal(single, expected)
        for workers in WORKER_COUNTS:
            with slab_config(slab_rows * 8 * cols, workers):
                got = fill_attenuation_rows(np.empty((rows, cols)), xy_rows, xy_cols, alpha)
            assert got.tobytes() == single.tobytes()


def _decode(nodes, params, budget_rows, tx, powers, slot, decoded_only):
    state = TiledNetworkState(nodes, budget_bytes=2 * budget_rows * 8 * len(nodes))
    channel = CachedChannel(params, state=state)
    return channel.resolve_indices_full(tx, powers, slot=slot, _decoded_only=decoded_only)


def _assert_same_decode(got, want) -> None:
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()  # bitwise, NaN included
    assert np.array_equal(got[2], want[2])


class TestDecodeParity:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 70),
        k_fraction=st.floats(0.0, 1.0),
        budget_rows=st.integers(1, 40),
        slab_cols=st.integers(1, 30),
        gain=st.sampled_from(sorted(GAIN_MODELS)),
        decoded_only=st.booleans(),
        colocated=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_decode_is_bitwise_the_one_slab_decode(
        self, n, k_fraction, budget_rows, slab_cols, gain, decoded_only, colocated, seed
    ):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0.0, 40.0, size=(n, 2))
        if colocated:
            # A listener on a transmitter's spot hears an infinite signal.
            xy[-1] = xy[0]
        nodes = _nodes(xy)
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.01, gain_model=GAIN_MODELS[gain])
        k = max(1, min(n - 1, round(k_fraction * n)))
        tx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.intp)
        if colocated and 0 not in tx:
            tx[0] = 0
            tx = np.sort(tx)
        powers = rng.uniform(0.5, 4.0, size=k)
        args = (nodes, params, budget_rows, tx, powers, 7, decoded_only)
        with slab_config(ONE_SLAB, 1):
            single = _decode(*args)
        dense = CachedChannel(params, state=NetworkState(nodes)).resolve_indices_full(
            tx, powers, slot=7, _decoded_only=decoded_only
        )
        _assert_same_decode(single, dense)
        # A transmitter's own column (the colocated pair) has a NaN SINR.
        assert np.isnan(single[1][tx]).all()
        for workers in WORKER_COUNTS:
            with slab_config(slab_cols * 8 * k, workers):
                _assert_same_decode(_decode(*args), single)
        # The dense store decodes in the same slabs, from its matrix rows
        # (wider than the view when capacity is reserved).
        roomy = CachedChannel(params, state=NetworkState(nodes, capacity=n + 3))
        for workers in (1, 2):
            with slab_config(slab_cols * 8 * k, workers):
                got = roomy.resolve_indices_full(tx, powers, slot=7, _decoded_only=decoded_only)
            _assert_same_decode(got, single)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_slab_decode_leaves_the_ring_unchanged(self, workers):
        rng = np.random.default_rng(4)
        nodes = _nodes(rng.uniform(0.0, 60.0, size=(50, 2)))
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.01)
        state = TiledNetworkState(nodes, budget_bytes=2 * 20 * 8 * len(nodes))
        channel = CachedChannel(params, state=state)
        tx = np.arange(0, 50, 3, dtype=np.intp)
        powers = np.linspace(1.0, 2.0, tx.size)
        with slab_config(4 * 8 * tx.size, workers):
            first = channel.resolve_indices_full(tx, powers)
            ring = state._row_caches[params.alpha].rows.copy()
            again = channel.resolve_indices_full(tx, powers)
        _assert_same_decode(again, first)
        assert state._row_caches[params.alpha].rows.tobytes() == ring.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_runtime_warning_escapes_a_worker(self):
        rng = np.random.default_rng(9)
        xy = rng.uniform(0.0, 40.0, size=(60, 2))
        xy[-1] = xy[0]
        params = SINRParameters(alpha=3.0, beta=1.0, noise=0.0)
        tx = np.arange(0, 60, 2, dtype=np.intp)
        powers = np.ones(tx.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with slab_config(4 * 8 * tx.size, 2):
                # Colocated pairs divide by zero; every column subtracts inf.
                best, sinr, ok = _decode(_nodes(xy), params, 40, tx, powers, None, False)
        assert np.isnan(sinr[tx]).all() and not ok[tx].any()


def _init_run(nodes, workers: int, slab_bytes: int):
    with slab_config(slab_bytes, workers):
        result = InitialTreeBuilder(SINRParameters()).build(
            nodes, np.random.default_rng(21), state=TiledNetworkState(nodes)
        )
    records = [
        (r.slot, r.transmitters, sorted(r.receptions.items()), r.label)
        for r in result.trace.records
    ]
    return result.tree.parent, result.slots_used, records


class TestInitAcrossWorkers:
    def test_init_on_a_tiled_store_is_the_same_at_one_and_two_workers(self):
        nodes = uniform_random(2500, np.random.default_rng(17))
        serial = _init_run(nodes, 1, slabs.SLAB_BYTES)
        parallel = _init_run(nodes, 2, slabs.SLAB_BYTES)
        assert parallel == serial

    def test_telemetry_counts_the_same_at_one_and_two_workers(self):
        nodes = uniform_random(300, np.random.default_rng(5))

        def counted(workers: int) -> list:
            with instrument_kernels(), telemetry() as registry:
                outcome = _init_run(nodes, workers, 16 * 1024)
            counts = sorted(
                (name, sorted(labels.items()), value)
                for name, labels, value in registry.counters()
                if name != "kernel.time_ns"
            )
            return [outcome, counts]

        serial, parallel = counted(1), counted(2)
        assert parallel == serial
        names = {name for name, _, _ in serial[1]}
        assert {"kernel.calls", "tiled.row_cache_miss", "sim.slots"} <= names


def _forked_digest(seed: int) -> tuple[int, bytes]:
    rng = np.random.default_rng(seed)
    xy_rows, xy_cols = rng.uniform(0.0, 50.0, size=(200, 2)), rng.uniform(0.0, 50.0, size=(300, 2))
    out = fill_attenuation_rows(np.empty((200, 300)), xy_rows, xy_cols, 3.0)
    return slabs.slab_workers(), out.tobytes()


class TestFork:
    def test_a_forked_trial_after_the_pool_ran_finishes_inline(self):
        with slab_config(64 * 1024, 2):
            workers, parent = _forked_digest(3)
            assert workers == 2 and slabs._pool is not None
            pool = multiprocessing.get_context("fork").Pool(1)
            try:
                child_workers, child = pool.apply_async(_forked_digest, (3,)).get(timeout=60)
            finally:
                pool.terminate()
                pool.join()
        assert child_workers == 1
        assert child == parent
