"""Tests for the parallel experiment runner (repro.experiments.parallel).

The workers>1 path must produce bit-identical results to the sequential
path: trials are deterministically seeded from their own arguments, and
``map_trials`` preserves sweep order.  These tests exercise the real
persistent-fabric branch (shared-memory config broadcast, chunked tasks,
worker-side payload cache) *and* the legacy cold-pool oracle
(``map_trials_cold``), and pin both against the sequential results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    default_workers,
    get_fabric,
    map_trials,
    shared_state,
)
from repro.experiments import e1_init, e9_capacity, e10_fading, f3_uniform_lower_bound
from repro.geometry import deployment_by_name
from repro.state import NetworkState

from .oracles import map_trials_cold


def _square(args: tuple[int, int]) -> int:
    """Module-level (picklable) trial function."""
    base, offset = args
    return base * base + offset


def _shared_square(args: tuple[dict, int]) -> int:
    """Trial tail + broadcast payload, reassembled by the fabric."""
    payload, value = args
    return payload["scale"] * value * value


def _state_digest(args: tuple[int]) -> tuple[int, float]:
    """Trial that reads the sweep's broadcast NetworkState zero-copy."""
    (seed,) = args
    state = shared_state()
    assert state is not None
    dist = state.distance_matrix()
    rng = np.random.default_rng(seed)
    row = int(rng.integers(len(state)))
    return row, float(dist[row].sum())


def _mutate_state(args: tuple[int]) -> None:
    """Misbehaving trial: tries to mutate the sweep's broadcast state."""
    (slot,) = args
    shared_state().move_nodes(np.array([slot]), np.array([[0.0, 0.0]]))


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


class TestSharedBroadcast:
    def test_shared_payload_pickled_once_per_sweep(self):
        payload = {"scale": 3}
        tails = [(i,) for i in range(8)]
        expected = [_shared_square((payload, i)) for i in range(8)]
        assert map_trials(_shared_square, tails, workers=1, shared=payload) == expected
        assert map_trials(_shared_square, tails, workers=2, shared=payload) == expected

    def test_state_broadcast_zero_copy(self):
        nodes = deployment_by_name("uniform", 32, np.random.default_rng(6))
        state = NetworkState(nodes)
        state.distance_matrix()
        tails = [(seed,) for seed in range(6)]
        sequential = map_trials(_state_digest, tails, workers=1, state=state)
        fabric = map_trials(
            _state_digest, tails, workers=2, state=state, state_alphas=(3.0,)
        )
        assert fabric == sequential
        # The broadcast is scoped to the sweep: no state outside one.
        assert shared_state() is None

    def test_broadcast_state_frozen_on_every_path(self):
        """A trial mutating the broadcast raises at any worker count."""
        nodes = deployment_by_name("uniform", 8, np.random.default_rng(2))
        state = NetworkState(nodes)
        for workers in (1, 2):
            with pytest.raises(Exception, match="read-only"):
                map_trials(_mutate_state, [(0,), (1,)], workers=workers, state=state)
        # The sweep-scoped freeze lifts afterwards in the owning process.
        assert not state.readonly
        state.move_nodes(np.array([0]), np.array([[0.5, 0.5]]))

    def test_consecutive_sweeps_reuse_the_pool(self):
        fabric = get_fabric(2)
        first = map_trials(_square, [(i, 0) for i in range(4)], workers=2)
        pool = fabric._pool
        assert pool is not None
        second = map_trials(_square, [(i, 1) for i in range(4)], workers=2)
        assert fabric._pool is pool  # same executor, no per-sweep cold start
        assert first == [0, 1, 4, 9]
        assert second == [1, 2, 5, 10]

    def test_distinct_broadcasts_per_sweep(self):
        tails = [(i,) for i in range(4)]
        for scale in (2, 5):
            result = map_trials(_shared_square, tails, workers=2, shared={"scale": scale})
            assert result == [scale * i * i for i in range(4)]


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
