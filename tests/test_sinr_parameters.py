"""Tests for repro.sinr.parameters."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.sinr import DEFAULT_PARAMETERS, SINRParameters


class TestValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_PARAMETERS.alpha > 2.0
        assert DEFAULT_PARAMETERS.beta > 0.0

    def test_alpha_must_exceed_two(self):
        with pytest.raises(ConfigurationError):
            SINRParameters(alpha=2.0)

    def test_beta_positive(self):
        with pytest.raises(ConfigurationError):
            SINRParameters(beta=0.0)

    def test_noise_non_negative(self):
        with pytest.raises(ConfigurationError):
            SINRParameters(noise=-0.1)

    def test_epsilon_positive(self):
        with pytest.raises(ConfigurationError):
            SINRParameters(epsilon=0.0)

    def test_max_power_positive_if_given(self):
        with pytest.raises(ConfigurationError):
            SINRParameters(max_power=0.0)
        assert SINRParameters(max_power=10.0).max_power == 10.0

    def test_max_power_negative_cap_rejected(self):
        """Non-positive caps must hit the ConfigurationError branch, not pass."""
        for bad_cap in (-1e-9, -1.0, -1e9, float("-inf")):
            with pytest.raises(ConfigurationError):
                SINRParameters(max_power=bad_cap)

    @pytest.mark.parametrize("field", ["alpha", "beta", "noise", "epsilon", "max_power"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            SINRParameters(**{field: value})

    def test_max_power_unset_means_uncapped(self):
        assert SINRParameters().max_power is None
        assert SINRParameters(max_power=None).max_power is None

    def test_with_overrides(self):
        params = SINRParameters().with_overrides(alpha=4.0)
        assert params.alpha == 4.0
        assert params.beta == SINRParameters().beta


class TestMinPower:
    def test_matches_paper_formula_for_slack_two(self):
        params = SINRParameters(alpha=3.0, beta=2.0, noise=1.0)
        # P = 2 * beta * N * d**alpha for slack 2.
        assert params.min_power_for(4.0, slack=2.0) == pytest.approx(2 * 2.0 * 1.0 * 64.0)

    def test_larger_slack_needs_less_power(self):
        params = SINRParameters()
        assert params.min_power_for(2.0, slack=4.0) < params.min_power_for(2.0, slack=2.0)

    def test_zero_noise_needs_no_power(self):
        params = SINRParameters(noise=0.0)
        assert params.min_power_for(10.0) == 0.0

    def test_slack_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            SINRParameters().min_power_for(1.0, slack=1.0)

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            SINRParameters().min_power_for(0.0)

    def test_min_power_keeps_cost_below_slack_beta(self):
        from repro.links import Link
        from repro.sinr import link_cost

        from .conftest import make_node

        params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0)
        link = Link(make_node(0, 0, 0), make_node(1, 3, 0))
        power = params.min_power_for(link.length, slack=2.0)
        assert link_cost(link, power, params) == pytest.approx(2.0 * params.beta)
