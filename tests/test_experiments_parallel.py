"""Tests for the parallel experiment runner (repro.experiments.parallel).

The workers>1 path must produce bit-identical results to the sequential
path: trials are deterministically seeded from their own arguments, and
``map_trials`` preserves sweep order.  These tests exercise the real
persistent-fabric branch (reused pool, chunked tasks) *and* the legacy
cold-pool oracle (``map_trials_cold``), and pin both against the sequential
results.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentConfig, default_workers, get_fabric, map_trials
from repro.experiments import e1_init, e9_capacity, e10_fading, f3_uniform_lower_bound

from .oracles import map_trials_cold


def _square(args: tuple[int, int]) -> int:
    """Module-level (picklable) trial function."""
    base, offset = args
    return base * base + offset


class TestMapTrials:
    def test_sequential_default(self):
        assert map_trials(_square, [(1, 0), (2, 1), (3, 2)]) == [1, 5, 11]

    def test_process_pool_preserves_order(self):
        args = [(i, i % 3) for i in range(10)]
        sequential = map_trials(_square, args, workers=1)
        parallel = map_trials(_square, args, workers=2)
        assert parallel == sequential

    def test_single_trial_stays_in_process(self):
        # len(trials) <= 1 short-circuits to the sequential loop even with
        # workers > 1 (a closure would not be picklable, proving the branch).
        result = map_trials(lambda args: args * 2, [21], workers=4)
        assert result == [42]

    def test_negative_workers_uses_default(self):
        assert default_workers() >= 1
        args = [(i, 0) for i in range(4)]
        assert map_trials(_square, args, workers=-1) == [0, 1, 4, 9]

    def test_default_workers_respects_affinity(self):
        # Containers pin processes to a CPU subset; the worker count must
        # follow the affinity mask, not the raw machine cpu_count.
        import os

        if hasattr(os, "sched_getaffinity"):
            assert default_workers() == max(1, len(os.sched_getaffinity(0)) - 1)

    def test_empty_trials(self):
        assert map_trials(_square, [], workers=4) == []

    def test_chunked_dispatch_preserves_order(self):
        args = [(i, 1) for i in range(11)]
        expected = [_square(a) for a in args]
        for chunksize in (1, 3, 11, 50):
            assert map_trials(_square, args, workers=2, chunksize=chunksize) == expected

    def test_cold_oracle_matches_fabric(self):
        args = [(i, i % 5) for i in range(9)]
        assert (
            map_trials_cold(_square, args, workers=2)
            == map_trials(_square, args, workers=2)
            == [_square(a) for a in args]
        )

    @pytest.mark.parametrize("chunksize", [0, -1])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_chunksize_rejected_on_every_path(self, workers, chunksize):
        # A non-positive chunk size once dropped every trial on the pool
        # path (and crashed inside range() for 0) while the sequential path
        # ignored it; both paths now reject it up front.
        with pytest.raises(ValueError, match="chunksize"):
            map_trials(_square, [(1, 0), (2, 0), (3, 0)], workers=workers, chunksize=chunksize)

    def test_consecutive_sweeps_reuse_the_pool(self):
        fabric = get_fabric(2)
        first = map_trials(_square, [(i, 0) for i in range(4)], workers=2)
        pool = fabric._pool
        assert pool is not None
        second = map_trials(_square, [(i, 1) for i in range(4)], workers=2)
        assert fabric._pool is pool  # same executor, no per-sweep cold start
        assert first == [0, 1, 4, 9]
        assert second == [1, 2, 5, 10]


class TestExperimentWorkers:
    @pytest.fixture(scope="class")
    def tiny_config(self) -> ExperimentConfig:
        return ExperimentConfig(sizes=(8, 12), delta_targets=(1.0e2,), seeds=(1,))

    @pytest.mark.parametrize(
        "module",
        [e1_init, e9_capacity, e10_fading, f3_uniform_lower_bound],
        ids=lambda m: m.__name__.rsplit(".", 1)[-1],
    )
    def test_workers_bit_identical(self, tiny_config, module):
        sequential = module.run(tiny_config)
        parallel = module.run(tiny_config.with_overrides(workers=2))
        assert parallel.rows == sequential.rows
        assert parallel.summary == sequential.summary
