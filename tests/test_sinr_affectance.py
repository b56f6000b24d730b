"""Tests for repro.sinr.affectance."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.links import Link
from repro.sinr import (
    SINRParameters,
    UniformPower,
    LinearPower,
    affectance,
    affectance_between_links,
    affectance_matrix,
    link_cost,
)

from .conftest import make_node


def _two_links(gap: float) -> tuple[Link, Link]:
    """Two unit links separated horizontally by ``gap``."""
    first = Link(make_node(0, 0, 0), make_node(1, 1, 0))
    second = Link(make_node(2, gap, 0), make_node(3, gap + 1, 0))
    return first, second


class TestLinkCost:
    def test_cost_at_least_beta(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 2, 0))
        cost = link_cost(link, params.min_power_for(2.0), params)
        assert cost >= params.beta

    def test_cost_infinite_when_power_too_low(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 2, 0))
        assert math.isinf(link_cost(link, 1e-6, params))

    def test_zero_noise_cost_is_beta(self):
        params = SINRParameters(noise=0.0)
        link = Link(make_node(0, 0, 0), make_node(1, 2, 0))
        assert link_cost(link, 1.0, params) == pytest.approx(params.beta)

    def test_invalid_power_rejected(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 1, 0))
        with pytest.raises(ValueError):
            link_cost(link, 0.0, params)


class TestScalarAffectance:
    def test_own_sender_has_zero_affectance(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 1, 0))
        assert affectance(link.sender, 10.0, link, 10.0, params) == 0.0

    def test_decreases_with_distance(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 1, 0))
        power = params.min_power_for(1.0)
        near = affectance(make_node(9, 3, 0), power, link, power, params)
        far = affectance(make_node(9, 30, 0), power, link, power, params)
        assert near > far

    def test_capped_at_one_plus_epsilon(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 1, 0))
        power = params.min_power_for(1.0)
        value = affectance(make_node(9, 1.001, 0.0), 1e9 * power, link, power, params)
        assert value == pytest.approx(1.0 + params.epsilon)

    def test_colocated_interferer_saturates(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 1, 0))
        power = params.min_power_for(1.0)
        value = affectance(make_node(9, 1.0, 0.0), power, link, power, params)
        assert value == pytest.approx(1.0 + params.epsilon)

    def test_scales_with_interferer_power(self, params):
        link = Link(make_node(0, 0, 0), make_node(1, 1, 0))
        power = params.min_power_for(1.0)
        weak = affectance(make_node(9, 10, 0), power, link, power, params)
        strong = affectance(make_node(9, 10, 0), 4 * power, link, power, params)
        assert strong == pytest.approx(4 * weak)


class TestAffectanceMatrix:
    def test_diagonal_is_zero(self, params, chain_links):
        power = UniformPower.for_max_length(params, 4.0)
        matrix = affectance_matrix(list(chain_links), power, params)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matches_scalar_computation(self, params):
        first, second = _two_links(10.0)
        power = UniformPower.for_max_length(params, 1.0)
        matrix = affectance_matrix([first, second], power, params)
        scalar = affectance_between_links(first, second, power, params)
        assert matrix[0, 1] == pytest.approx(scalar)

    def test_far_links_have_small_affectance(self, params):
        first, second = _two_links(1000.0)
        power = UniformPower.for_max_length(params, 1.0)
        matrix = affectance_matrix([first, second], power, params)
        assert matrix[0, 1] < 1e-6

    def test_empty_and_singleton(self, params):
        power = UniformPower(1.0)
        assert affectance_matrix([], power, params).shape == (0, 0)
        link = Link(make_node(0, 0, 0), make_node(1, 1, 0))
        matrix = affectance_matrix([link], UniformPower.for_max_length(params, 1.0), params)
        assert matrix.tolist() == [[0.0]]

    def test_same_sender_entries_zeroed(self, params):
        shared = make_node(0, 0, 0)
        first = Link(shared, make_node(1, 1, 0))
        second = Link(shared, make_node(2, 0, 1))
        power = UniformPower.for_max_length(params, 1.0)
        matrix = affectance_matrix([first, second], power, params)
        assert matrix[0, 1] == 0.0
        assert matrix[1, 0] == 0.0

    def test_linear_power_favors_long_links_over_uniform(self, params):
        # Under linear power, a short interferer bothers a long link less than
        # under uniform power (relative to the long link's received signal).
        long_link = Link(make_node(0, 0, 0), make_node(1, 8, 0))
        short_link = Link(make_node(2, 20, 0), make_node(3, 21, 0))
        uniform = UniformPower.for_max_length(params, 8.0)
        linear = LinearPower.for_noise(params)
        a_uniform = affectance_between_links(short_link, long_link, uniform, params)
        a_linear = affectance_between_links(short_link, long_link, linear, params)
        assert a_linear < a_uniform
