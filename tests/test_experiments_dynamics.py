"""Tests for the dynamics experiments E10 (fading), E11 (mobility), E12 (churn)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, e10_fading, e11_mobility, e12_churn


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(sizes=(20,), seeds=(1,))


@pytest.fixture(scope="module")
def small_config() -> ExperimentConfig:
    return ExperimentConfig(sizes=(20, 32), seeds=(1, 2))


class TestE10Fading:
    def test_rows_cover_all_models(self, tiny_config):
        result = e10_fading.run(tiny_config)
        assert result.experiment_id == "E10"
        models = {row["model"] for row in result.rows}
        assert models == {"deterministic", "shadowing", "rayleigh"}
        sigmas = {
            row["sigma_db"] for row in result.rows if row["model"] == "shadowing"
        }
        assert sigmas == set(e10_fading.SHADOWING_SIGMAS_DB)

    def test_deterministic_schedule_delivers_everything(self, tiny_config):
        result = e10_fading.run(tiny_config)
        assert result.summary["deterministic_rate"] == 1.0

    def test_zero_sigma_shadowing_matches_deterministic(self, tiny_config):
        """The stochastic code path with unit fades is a live parity probe."""
        result = e10_fading.run(tiny_config)
        assert result.summary["zero_sigma_matches_deterministic"] is True

    def test_fading_degrades_delivery(self, small_config):
        result = e10_fading.run(small_config)
        worst_sigma = max(e10_fading.SHADOWING_SIGMAS_DB)
        faded = [
            row["delivery_rate"]
            for row in result.rows
            if row["model"] == "shadowing" and row["sigma_db"] == worst_sigma
        ]
        assert all(rate < 1.0 for rate in faded)
        assert result.summary["mean_rayleigh_rate"] < 1.0


class TestE11Mobility:
    def test_rows_and_half_life_fields(self, tiny_config):
        result = e11_mobility.run(tiny_config)
        assert result.experiment_id == "E11"
        assert len(result.rows) == len(e11_mobility.WALK_SIGMAS)
        for row in result.rows:
            assert 0 <= row["half_life"] <= e11_mobility.MOBILITY_EPOCHS
            assert 0.0 <= row["final_feasible_fraction"] <= 1.0

    def test_fast_walks_degrade_more_than_slow_walks(self, small_config):
        result = e11_mobility.run(small_config)
        by_sigma = result.summary["mean_half_life_by_sigma"]
        slowest, fastest = min(by_sigma), max(by_sigma)
        assert by_sigma[fastest] <= by_sigma[slowest]


class TestE12Churn:
    def test_repair_cheaper_than_rebuild(self, small_config):
        # A repair is one Init over the damage: a sweep of it costs no more
        # than a rebuild's, and it is cheaper on average.  A small patch can
        # need more sweeps than the rebuild did, so a few rows cost more
        # (85 of 1,050 rows over seeds 1-150); the title claims the mean.
        result = e12_churn.run(small_config)
        assert result.experiment_id == "E12"
        assert "mean repair < rebuild" in result.title
        ratios = [row["repair_over_rebuild"] for row in result.rows]
        assert result.summary["mean_repair_over_rebuild"] == round(float(np.mean(ratios)), 3)
        assert result.summary["mean_repair_over_rebuild"] < 1.0
        cheaper = [row["repair_slots"] < row["rebuild_slots"] for row in result.rows]
        assert sum(cheaper) > len(cheaper) / 2

    def test_sustained_churn_stays_connected(self, tiny_config):
        result = e12_churn.run(tiny_config)
        assert result.summary["sustained_always_connected"] is True


class TestParallelParity:
    """Acceptance: E10-E12 run green and bit-identical under workers > 1."""

    @pytest.mark.parametrize(
        "module", [e10_fading, e11_mobility, e12_churn], ids=["e10", "e11", "e12"]
    )
    def test_workers_bit_identical(self, module, small_config):
        sequential = module.run(small_config)
        parallel = module.run(small_config.with_overrides(workers=2))
        assert sequential.rows == parallel.rows
        assert sequential.summary == parallel.summary
