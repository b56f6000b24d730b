"""Tests for the experiment harness (repro.experiments)."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, average_rows
from repro.experiments import e1_init, e2_degree, e5_tvc_arbitrary, f1_comparison


@pytest.fixture(scope="module")
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        sizes=(16, 24),
        delta_targets=(1.0e2, 1.0e3),
        seeds=(1,),
        delta_sweep_size=20,
    )


class TestConfig:
    def test_trials_enumeration(self):
        config = ExperimentConfig(sizes=(8, 16), seeds=(1, 2))
        assert config.trials() == [(8, 1), (8, 2), (16, 1), (16, 2)]

    def test_quick_and_full_presets(self):
        assert len(ExperimentConfig.quick().sizes) <= len(ExperimentConfig.full().sizes)

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(sizes=(8,))
        assert config.sizes == (8,)


class TestConfigValidation:
    """Bad knobs fail when the config is built, not when a trial runs."""

    def test_empty_sizes_rejected(self):
        with pytest.raises(ConfigurationError, match="sizes"):
            ExperimentConfig(sizes=())

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            ExperimentConfig(seeds=())

    def test_non_positive_size_rejected(self):
        with pytest.raises(ConfigurationError, match="sizes must be positive"):
            ExperimentConfig(sizes=(8, 0))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ExperimentConfig(seeds=(1, -1))

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), 2.0, 1.5])
    def test_bad_delta_target_rejected(self, target):
        with pytest.raises(ConfigurationError, match="delta targets"):
            ExperimentConfig(delta_targets=(1.0e2, target))

    def test_delta_sweep_size_without_room_for_outliers_rejected(self):
        with pytest.raises(ConfigurationError, match="delta_sweep_size"):
            ExperimentConfig(delta_sweep_size=4)
        assert ExperimentConfig(delta_sweep_size=5).delta_sweep_size == 5

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown deployment"):
            ExperimentConfig(deployment="hexagonal")

    @pytest.mark.parametrize("workers", [0, -2])
    def test_bad_workers_rejected(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            ExperimentConfig(workers=workers)
        assert ExperimentConfig(workers=-1).workers == -1

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ExperimentConfig.quick().with_overrides(workers=0)


class TestAverageRows:
    def test_grouping_and_averaging(self):
        rows = [
            {"n": 8, "value": 2.0},
            {"n": 8, "value": 4.0},
            {"n": 16, "value": 10.0},
        ]
        averaged = average_rows(rows, "n", ["value"])
        assert averaged == [{"n": 8, "value": 3.0}, {"n": 16, "value": 10.0}]

    def test_non_numeric_fields_take_first(self):
        rows = [{"n": 8, "tag": "a"}, {"n": 8, "tag": "b"}]
        assert average_rows(rows, "n", ["tag"])[0]["tag"] == "a"


class TestExperimentRegistry:
    def test_registry_covers_design_index(self):
        expected = {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
            "E10", "E11", "E12", "E13", "E14", "F1", "F2", "F3",
        }
        assert set(ALL_EXPERIMENTS) == expected


class TestSelectedExperiments:
    def test_e1_rows_and_summary(self, tiny_config):
        result = e1_init.run(tiny_config)
        assert result.experiment_id == "E1"
        assert len(result.rows) == len(tiny_config.trials())
        assert result.summary["all_strongly_connected"]
        assert "slots" in result.rows[0]

    def test_e2_degree_bounds(self, tiny_config):
        result = e2_degree.run(tiny_config)
        assert all(row["max_degree"] >= 1 for row in result.rows)
        assert result.summary["max_max_degree_per_log_n"] < 5.0

    def test_e5_valid_and_short(self, tiny_config):
        result = e5_tvc_arbitrary.run(tiny_config)
        assert result.summary["all_valid"]
        for row in result.rows:
            assert row["schedule_len"] < row["n"]

    def test_f1_ordering(self, tiny_config):
        result = f1_comparison.run(tiny_config)
        assert result.summary["ordering_expected"]
        for row in result.rows:
            assert row["tvc_arbitrary"] <= row["naive_tdma"]

    def test_result_rendering(self, tiny_config):
        result = e1_init.run(tiny_config)
        assert "E1" in result.table()
        assert result.markdown().startswith("### E1")
