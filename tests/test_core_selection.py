"""Tests for T(M), mean-power sampling selection and Distr-Cap (Section 8).

Distr-Cap on a caller's geometry store must select exactly what it selects
on its own store, so the store checks run on the dense store and with every
store forced onto the tiled path (``DENSE_BUDGET_BYTES = 0``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistrCapSelector,
    InitialTreeBuilder,
    MeanPowerSelector,
    degree_bounded_subset,
    is_power_controllable,
    solve_power,
)
from repro.core.distr_cap import _geometry_state, _within_threshold
from repro.exceptions import ConfigurationError
from repro.geometry import uniform_random
from repro.links import Link, LinkSet, sparsity
from repro.sinr import MeanPower, SINRParameters, is_feasible
from repro.state import NetworkState, network

from .conftest import make_node

#: Dense budget of the default build, and zero: every store tiled.
BUDGETS = pytest.mark.parametrize(
    "budget", [network.DENSE_BUDGET_BYTES, 0], ids=["dense", "tiled"]
)


def _star(count: int) -> LinkSet:
    hub = make_node(0, 0.0, 0.0)
    return LinkSet(Link(make_node(i, float(i), 3.0), hub) for i in range(1, count + 1))


@pytest.fixture(scope="module")
def init_outcome():
    params = SINRParameters()
    rng = np.random.default_rng(21)
    from repro.geometry import uniform_random

    nodes = uniform_random(48, rng)
    outcome = InitialTreeBuilder(params).build(nodes, rng)
    return params, outcome


class TestDegreeBoundedSubset:
    def test_low_degree_tree_is_untouched(self, chain_links):
        result = degree_bounded_subset(chain_links, rho=2)
        assert len(result.subset) == len(chain_links)
        assert result.fraction == pytest.approx(1.0)

    def test_high_degree_hub_links_removed(self):
        star = _star(6)
        result = degree_bounded_subset(star, rho=3)
        assert len(result.subset) == 0
        assert 0 not in result.low_degree_nodes

    def test_fraction_of_real_tree_is_large(self, init_outcome):
        _, outcome = init_outcome
        links = outcome.tree.aggregation_links()
        result = degree_bounded_subset(links, rho=6)
        assert result.fraction >= 0.5

    def test_subset_sparsity_not_worse_than_tree(self, init_outcome):
        _, outcome = init_outcome
        links = outcome.tree.aggregation_links()
        result = degree_bounded_subset(links, rho=6)
        assert sparsity(result.subset).psi <= sparsity(links).psi

    def test_invalid_rho(self, chain_links):
        with pytest.raises(ValueError):
            degree_bounded_subset(chain_links, rho=0)

    def test_empty_tree(self):
        result = degree_bounded_subset(LinkSet(), rho=3)
        assert len(result.subset) == 0
        assert result.fraction == 0.0


class TestMeanPowerSelector:
    def test_selected_set_is_feasible_under_mean_power(self, init_outcome, rng):
        params, outcome = init_outcome
        candidates = degree_bounded_subset(outcome.tree.aggregation_links(), 6).subset
        power = MeanPower.for_max_length(params, max(outcome.delta, 1.0))
        result = MeanPowerSelector(params).select(candidates, rng, power=power)
        assert len(result.selected) >= 1
        assert is_feasible(list(result.selected), power, params)

    def test_selected_links_come_from_candidates(self, init_outcome, rng):
        params, outcome = init_outcome
        candidates = outcome.tree.aggregation_links()
        result = MeanPowerSelector(params).select(candidates, rng)
        assert all(link in candidates for link in result.selected)

    def test_probability_decreases_with_upsilon(self, params):
        selector = MeanPowerSelector(params)
        assert selector.sampling_probability(1024, 1e9) < selector.sampling_probability(8, 4.0)

    def test_explicit_probability_respected(self, params):
        selector = MeanPowerSelector(params, probability=0.123)
        assert selector.sampling_probability(100, 100.0) == 0.123

    def test_invalid_probability(self, params):
        with pytest.raises(ValueError):
            MeanPowerSelector(params, probability=0.0)

    def test_empty_candidates(self, params, rng):
        result = MeanPowerSelector(params).select(LinkSet(), rng)
        assert len(result.selected) == 0
        assert result.slots_used == 0


class TestDistrCapSelector:
    def test_selected_set_is_power_controllable(self, init_outcome, rng):
        params, outcome = init_outcome
        candidates = degree_bounded_subset(outcome.tree.aggregation_links(), 6).subset
        result = DistrCapSelector(params).select(candidates, rng, link_rounds=outcome.link_rounds)
        assert len(result.selected) >= 1
        assert result.power_controllable
        power = solve_power(list(result.selected), params, margin=1.05)
        assert is_feasible(list(result.selected), power, params)

    def test_no_node_in_two_selected_links(self, init_outcome, rng):
        params, outcome = init_outcome
        candidates = outcome.tree.aggregation_links()
        result = DistrCapSelector(params).select(candidates, rng, link_rounds=outcome.link_rounds)
        used: set[int] = set()
        for link in result.selected:
            assert link.sender.id not in used
            assert link.receiver.id not in used
            used.update(link.endpoint_ids)

    def test_slots_used_is_two_per_phase(self, init_outcome, rng):
        params, outcome = init_outcome
        candidates = outcome.tree.aggregation_links()
        result = DistrCapSelector(params).select(candidates, rng, link_rounds=outcome.link_rounds)
        assert result.slots_used == 2 * result.phases

    def test_selection_without_round_hints_uses_length_classes(self, init_outcome, rng):
        params, outcome = init_outcome
        candidates = outcome.tree.aggregation_links()
        result = DistrCapSelector(params).select(candidates, rng)
        assert result.phases >= 1
        assert is_power_controllable(list(result.selected), params)

    def test_empty_candidates(self, params, rng):
        result = DistrCapSelector(params).select(LinkSet(), rng)
        assert len(result.selected) == 0
        assert result.phases == 0

    def test_selects_constant_fraction_on_average(self, init_outcome):
        params, outcome = init_outcome
        candidates = degree_bounded_subset(outcome.tree.aggregation_links(), 6).subset
        sizes = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            result = DistrCapSelector(params).select(
                candidates, rng, link_rounds=outcome.link_rounds
            )
            sizes.append(len(result.selected))
        assert np.mean(sizes) >= 0.05 * len(candidates)


def scalar_within_threshold(block: np.ndarray, threshold: float) -> list[bool]:
    """The seed's admission check: per column, add down the rows in order and
    stop at the first running sum above the threshold."""
    passed = []
    for column in block.T:
        total = 0.0
        for value in column:
            total += value
            if total > threshold:
                break
        passed.append(bool(total <= threshold))
    return passed


def _running_sums(block: np.ndarray) -> list[list[float]]:
    """Each column's running sums, added one row at a time."""
    columns = []
    for column in block.T.tolist():
        total, running = 0.0, []
        for value in column:
            total += value
            running.append(total)
        columns.append(running)
    return columns


#: Affectances are >= 0 and capped at 1 + epsilon, but a block also holds
#: exact zeros (same sender), inf (colocated) and, in degenerate arithmetic,
#: NaN.
AFFECTANCES = st.one_of(
    st.sampled_from([0.0, math.inf, math.nan, 0.25, 0.5, 1.0, 1.1, 2.0**-53]),
    st.floats(min_value=0.0, max_value=2.0),
    # Terms below an ulp of the running sum, where the order of addition
    # decides the rounding.
    st.floats(min_value=0.0, max_value=1e-15),
)


def _at_and_around(total: float) -> st.SearchStrategy[float]:
    return st.sampled_from([total, math.nextafter(total, math.inf), math.nextafter(total, -math.inf)])


@st.composite
def blocks_and_thresholds(draw):
    rows = draw(st.integers(min_value=1, max_value=40))
    cols = draw(st.integers(min_value=1, max_value=6))
    block = np.array(
        draw(st.lists(AFFECTANCES, min_size=rows * cols, max_size=rows * cols)), dtype=float
    ).reshape(rows, cols)
    running = _running_sums(block)
    full = [column[-1] for column in running if math.isfinite(column[-1])]
    partial = [total for column in running for total in column if math.isfinite(total)]
    # A column's full or partial sum exactly at the threshold, or one ulp
    # around it, or any threshold.
    choices = [st.floats(min_value=0.0, max_value=5.0)]
    choices += [st.sampled_from(sums).flatmap(_at_and_around) for sums in (full, partial) if sums]
    return block, draw(st.one_of(choices))


class TestAdmissionCheck:
    @settings(max_examples=400, deadline=None)
    @given(case=blocks_and_thresholds())
    def test_equals_the_early_exit_loop(self, case):
        block, threshold = case
        assert _within_threshold(block, threshold).tolist() == scalar_within_threshold(
            block, threshold
        )

    def test_edges(self):
        block = np.array([[0.5, 0.5, math.nan, 0.0, math.inf], [0.5, 0.75, 0.0, 0.0, 0.0]])
        assert _within_threshold(block, 1.0).tolist() == [True, False, False, True, False]
        assert scalar_within_threshold(block, 1.0) == [True, False, False, True, False]

    def test_adds_in_row_order(self):
        # 1 + 2**-53 rounds back to 1 twice; the two small terms added first
        # would make 2**-52 and push the sum one ulp above 1.
        block = np.array([[1.0], [2.0**-53], [2.0**-53]])
        assert _within_threshold(block, 1.0).tolist() == [True]
        assert _within_threshold(block[::-1].copy(), 1.0).tolist() == [False]


def _result_key(result):
    return (
        [link.endpoint_ids for link in result.selected],
        result.slots_used,
        result.phases,
        result.power_controllable,
    )


class TestDistrCapOnAGivenStore:
    @BUDGETS
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(0, 2**16),
        sparse=st.booleans(),
        hints=st.booleans(),
        reorder=st.booleans(),
    )
    def test_matches_its_own_store(self, budget, n, seed, sparse, hints, reorder):
        params = SINRParameters()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "DENSE_BUDGET_BYTES", budget)
            nodes = uniform_random(n, np.random.default_rng(seed))
            built = InitialTreeBuilder(params).build(nodes, np.random.default_rng(seed + 1))
            candidates = built.tree.aggregation_links()
            if sparse:
                # Fewer endpoints than the store holds.
                candidates = degree_bounded_subset(candidates, 2).subset or candidates
            rounds = built.link_rounds if hints else None
            store = NetworkState.for_nodes(nodes[::-1] if reorder else nodes)
            selector = DistrCapSelector(params)
            got = selector.select(
                candidates, np.random.default_rng(seed), link_rounds=rounds, state=store
            )
            own = selector.select(candidates, np.random.default_rng(seed), link_rounds=rounds)
            assert _result_key(got) == _result_key(own)


def _pair(first, second) -> Link:
    return Link(make_node(*first), make_node(*second))


def _endpoint_loop_error(links, state) -> str | None:
    """The message of the first failing endpoint check, one endpoint at a
    time (the reference for ``_geometry_state``'s array checks)."""
    endpoints = {}
    for node in (node for link in links for node in link.endpoints):
        if not (math.isfinite(node.x) and math.isfinite(node.y)):
            return f"endpoint {node.id} has a non-finite coordinate {node.position}"
        if endpoints.setdefault(node.id, node).position != node.position:
            return f"endpoint {node.id} appears at two positions"
    if state is None:
        return None
    for node_id in endpoints:
        if node_id not in state:
            return f"the store lacks endpoint {node_id}"
    for node_id, node in endpoints.items():
        if tuple(state.xy[state.slot_of_id(node_id)]) != (node.x, node.y):
            return f"the store holds endpoint {node_id} elsewhere"
    return None


class TestDistrCapInput:
    """Bad input is rejected with a typed error before any slot draws."""

    GOOD = [_pair((1, 0.0, 0.0), (2, 3.0, 0.0)), _pair((3, 10.0, 0.0), (4, 12.0, 0.0))]
    BAD_LINKS = {
        "nan": [*GOOD, _pair((5, math.nan, 1.0), (6, 0.0, 5.0))],
        "inf": [*GOOD, _pair((5, 1.0, 1.0), (6, 0.0, -math.inf))],
        "two-positions": [*GOOD, _pair((2, 3.0, 0.5), (7, 0.0, 9.0))],
    }
    MESSAGES = {
        "nan": "non-finite",
        "inf": "non-finite",
        "two-positions": "two positions",
    }

    @pytest.mark.parametrize("case", sorted(BAD_LINKS))
    def test_selector_rejects(self, case):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match=self.MESSAGES[case]):
            DistrCapSelector(SINRParameters()).select(self.BAD_LINKS[case], rng)
        assert rng.bit_generator.state == before

    def test_store_lacking_an_endpoint(self):
        nodes = [link.sender for link in self.GOOD] + [self.GOOD[0].receiver]
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="lacks endpoint 4"):
            DistrCapSelector(SINRParameters()).select(self.GOOD, rng, state=NetworkState(nodes))
        assert rng.bit_generator.state == before

    def test_store_holding_an_endpoint_elsewhere(self):
        nodes = [node for link in self.GOOD for node in link.endpoints]
        nodes[3] = make_node(4, 12.0, 1.0)
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="endpoint 4 elsewhere"):
            DistrCapSelector(SINRParameters()).select(self.GOOD, rng, state=NetworkState(nodes))
        assert rng.bit_generator.state == before

    @settings(max_examples=200, deadline=None)
    @given(
        ends=st.lists(
            st.tuples(
                st.integers(0, 5),
                # Mostly each id's own position; now and then another one.
                st.sampled_from([None] * 6 + [(math.nan, 0.0), (1.0, -math.inf), (2.5, 2.5)]),
            ),
            min_size=2,
            max_size=10,
        ),
        store=st.none()
        | st.lists(st.sampled_from(["held", "moved", "absent"]), min_size=6, max_size=6),
    )
    def test_first_failure_matches_an_endpoint_loop(self, ends, store):
        """The array checks raise what a check of each endpoint in turn raises."""
        nodes = [make_node(node_id, *(xy or (3.0 * node_id, 0.0))) for node_id, xy in ends]
        links = [Link(a, b) for a, b in zip(nodes[::2], nodes[1::2]) if a.id != b.id]
        if not links:
            return
        state = None
        if store is not None:
            first = {node.id: node for node in reversed(nodes)}
            held = []
            for node_id, fate in enumerate(store):
                node = first.get(node_id, make_node(node_id, 40.0, 40.0))
                if fate == "moved" or not (math.isfinite(node.x) and math.isfinite(node.y)):
                    node = make_node(node_id, 50.0 + node_id, 0.0)
                if fate != "absent":
                    held.append(node)
            state = NetworkState(held)
        expected = _endpoint_loop_error(links, state)
        if expected is None:
            _geometry_state(links, state)
        else:
            with pytest.raises(ConfigurationError) as raised:
                _geometry_state(links, state)
            assert str(raised.value) == expected

    def test_store_with_extra_nodes_is_accepted(self):
        nodes = [node for link in self.GOOD for node in link.endpoints] + [make_node(9, 50.0, 0.0)]
        selector = DistrCapSelector(SINRParameters())
        got = selector.select(self.GOOD, np.random.default_rng(1), state=NetworkState(nodes))
        assert _result_key(got) == _result_key(selector.select(self.GOOD, np.random.default_rng(1)))
