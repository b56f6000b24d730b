"""Selection by position against the link-object selection it replaced.

``DistrCapSelector`` and ``MeanPowerSelector`` run on
:class:`~repro.sinr.PositionedLinks` - candidates as (sender, receiver)
slots of one geometry store - and map ``Link`` candidates to slots once at
entry; ``TreeViaCapacity`` hands them ``T(M)`` as its Init tree's positions.
``tests/oracles`` keeps both selectors on link objects: Distr-Cap with a
fresh ``LinkArrayCache`` per phase slot, mean power with a private
``TiledNetworkState.from_links`` per call.  Everything must match them bit
for bit:

* a positional block equals the link cache's block
  (``link_affectance_block``) over the same oriented links, on either store, with and without fades;
* both selectors, on positions over a caller's store (dense or tiled) and on
  ``Link`` objects, select what the oracles select, flip the same coins and
  read one seed word;
* a whole TreeViaCapacity run equals the link-object iteration with the
  link-object selectors (``tests/test_tvc_arrays.py`` covers n in {1, 2,
  small, 512}, an empty ``T(M)`` and an empty Distr-Cap selection; the
  mean-power empty selection, fading and the tiled store are here), and it
  records its OBS counters without changing a result.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DistrCapResult,
    DistrCapSelector,
    InitialTreeBuilder,
    MeanPowerSelectionResult,
    MeanPowerSelector,
    TreeViaCapacity,
    is_power_controllable,
)
from repro.core.distr_cap import PhaseSeam, _geometry_state
from repro.dynamics import LogNormalShadowing, RayleighFading
from repro.geometry import Node, uniform_random
from repro.links import Link, LinkSet
from repro.netsim import NetDistrCapResult
from repro.obs.runtime import telemetry
from repro.sinr import LinearPower, PositionedLinks, SINRParameters
from repro.state import DecodeWorkspace, NetworkState, network

from .oracles import (
    LinkArrayCache,
    LinkPathDistrCapSelector,
    LinkPathMeanPowerSelector,
    ReferenceTreeViaCapacity,
    link_affectance_block,
)
from .test_tvc_arrays import _run_both, assert_same_tvc

#: Dense budget of the default build, and zero: every store tiled.
BUDGETS = pytest.mark.parametrize(
    "budget", [network.DENSE_BUDGET_BYTES, 0], ids=["dense", "tiled"]
)
#: The deterministic channel, a slot-invariant fade and a per-slot one.
GAIN_MODELS = (None, LogNormalShadowing(sigma_db=6.0, seed=3), RayleighFading(seed=5))
#: The models a link cache serves (it has no slot to draw per-slot fades for).
SLOT_INVARIANT = GAIN_MODELS[:2]


def _nodes(n: int, seed: int) -> list[Node]:
    """``n`` uniform nodes whose ids are offset and shuffled."""
    placed = uniform_random(n, np.random.default_rng(seed))
    ids = 500 + 7 * np.random.default_rng(seed + 1).permutation(n)
    return [Node(id=int(i), position=node.position) for i, node in zip(ids, placed)]


def _tree_candidates(nodes, seed, state):
    """An Init tree's links over ``nodes`` as positions of ``state`` (which
    holds ``nodes`` in order), with their rounds, and as link objects."""
    built = InitialTreeBuilder(SINRParameters()).build(nodes, np.random.default_rng(seed))
    children, parents = built.link_positions()
    rounds = built.state.parent_round[children]
    positioned = PositionedLinks(state, children, parents, rounds)
    links = [Link(nodes[c], nodes[p]) for c, p in zip(children.tolist(), parents.tolist())]
    link_rounds = {link.endpoint_ids: int(r) for link, r in zip(links, rounds.tolist())}
    return positioned, links, link_rounds


@st.composite
def link_sets(draw, max_links=16):
    """Links between random nodes of a deployment: senders and receivers may
    repeat, and a link may appear twice."""
    n = draw(st.integers(2, 20))
    nodes = _nodes(n, draw(st.integers(0, 2**16)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            min_size=1,
            max_size=max_links,
        )
    )
    return nodes, [Link(nodes[a], nodes[b]) for a, b in pairs]


def _distr_cap_key(result: DistrCapResult) -> tuple:
    return (
        [link.endpoint_ids for link in result.selected],
        result.slots_used,
        result.phases,
        result.power_controllable,
    )


def _mean_power_key(result: MeanPowerSelectionResult) -> tuple:
    return (
        [link.endpoint_ids for link in result.selected],
        result.slots_used,
        result.attempts,
        result.probability,
        type(result.power),
        vars(result.power),
    )


class TestPositionedLinks:
    @BUDGETS
    @settings(max_examples=60, deadline=None)
    @given(
        case=link_sets(),
        dual=st.booleans(),
        arena=st.booleans(),
        model=st.sampled_from(SLOT_INVARIANT),
        picks=st.lists(st.integers(0, 10**6), min_size=2, max_size=12),
    )
    def test_block_equals_the_link_cache(self, budget, case, dual, arena, model, picks):
        nodes, links = case
        params = SINRParameters(gain_model=model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "DENSE_BUDGET_BYTES", budget)
            state = NetworkState.for_nodes(nodes)
            if state.materializes_matrices:
                state.distance_matrix()
        slots = np.array([state.slot_of_id(i) for link in links for i in link.endpoint_ids])
        positioned = PositionedLinks(state, slots[0::2], slots[1::2])
        half = len(picks) // 2
        rows = np.array([p % len(links) for p in picks[:half]], dtype=np.intp)
        cols = np.array([p % len(links) for p in picks[half:]], dtype=np.intp)
        linear = LinearPower.for_noise(params)
        powers = np.array([linear.of_length(length) for length in positioned.lengths.tolist()])
        cache = LinkArrayCache([link.dual if dual else link for link in links], state=state)
        got = positioned.affectance_block(
            rows, cols, powers, params, dual=dual, workspace=DecodeWorkspace() if arena else None
        )
        expected = link_affectance_block(cache, rows, cols, linear, params)
        assert got.tobytes() == expected.tobytes()

    def test_lengths_and_links_are_the_link_objects(self):
        nodes = _nodes(30, 2)
        state = NetworkState.for_nodes(nodes)
        senders, receivers = np.arange(0, 29), np.arange(1, 30)
        positioned = PositionedLinks(state, senders, receivers)
        links = [Link(nodes[s], nodes[r]) for s, r in zip(senders, receivers)]
        assert positioned.links() == links
        assert positioned.lengths.tolist() == [link.length for link in links]
        assert positioned.links(np.array([4, 2])) == [links[4], links[2]]
        assert len(positioned) == 29


class TestDistrCapByPosition:
    @BUDGETS
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**16),
        model=st.sampled_from(GAIN_MODELS),
    )
    def test_tree_positions_match_the_link_path(self, budget, n, seed, model):
        params = SINRParameters(gain_model=model)
        nodes = _nodes(n, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "DENSE_BUDGET_BYTES", budget)
            state = NetworkState.for_nodes(nodes)
            positioned, links, rounds = _tree_candidates(nodes, seed, state)
            rng = np.random.default_rng(seed)
            got = DistrCapSelector(params).select(positioned, rng)
            oracle_rng = np.random.default_rng(seed)
            expected = LinkPathDistrCapSelector(params).select(
                links, oracle_rng, link_rounds=rounds, state=state
            )
        assert _distr_cap_key(got) == _distr_cap_key(expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        case=link_sets(max_links=24),
        seed=st.integers(0, 2**16),
        hints=st.booleans(),
        model=st.sampled_from(GAIN_MODELS),
        p=st.sampled_from([0.3, 0.7, 1.0]),
    )
    def test_link_callers_match_the_link_path(self, case, seed, hints, model, p):
        nodes, links = case
        params = SINRParameters(gain_model=model)
        constants = DistrCapSelector(params).constants.with_overrides(selection_probability=p)
        # Partial hints: a link without a round is phased by its length class.
        rounds = {link.endpoint_ids: k % 3 for k, link in enumerate(links[::2])} if hints else None
        got = DistrCapSelector(params, constants).select(
            links, np.random.default_rng(seed), link_rounds=rounds
        )
        expected = LinkPathDistrCapSelector(params, constants).select(
            links, np.random.default_rng(seed), link_rounds=rounds
        )
        assert _distr_cap_key(got) == _distr_cap_key(expected)
        assert [id(link) for link in got.selected] == [id(link) for link in expected.selected]

    @settings(max_examples=150, deadline=None)
    @given(
        case=link_sets(max_links=12),
        forward=st.booleans(),
        split=st.integers(0, 12),
        pick=st.integers(0, 10**6),
    )
    def test_phase_slot_equals_the_link_slot(self, case, forward, split, pick):
        """One slot on positions passes the links the link-object slot
        passes, at thresholds on and just around a column's running sum
        (where counting a repeated sender twice would flip the check) and
        far above every sum (where only half-duplex can fail a link)."""
        nodes, links = case
        params = SINRParameters()
        state = NetworkState.for_nodes(nodes)
        if state.materializes_matrices:
            state.distance_matrix()
        slots = np.array([state.slot_of_id(i) for link in links for i in link.endpoint_ids])
        positioned = PositionedLinks(state, slots[0::2], slots[1::2])
        split = min(split, len(links) - 1)
        selected, attempting = np.arange(split), np.arange(split, len(links))
        linear = LinearPower.for_noise(params)
        powers = np.array([linear.of_length(length) for length in positioned.lengths.tolist()])
        universe = [link if forward else link.dual for link in links]
        cache = LinkArrayCache(universe, state=state)
        firsts = sorted({link.sender.id: k for k, link in reversed(list(enumerate(universe)))}.values())
        block = link_affectance_block(cache, firsts, attempting, linear, params)
        sums = np.add.accumulate(block, axis=0)
        finite = sums[np.isfinite(sums)].tolist()
        total = finite[pick % len(finite)] if finite else 1.0
        for threshold in (total, np.nextafter(total, 0.0), np.nextafter(total, np.inf), 1e9):
            got = DistrCapSelector(params)._phase_slot(
                positioned, attempting, selected, powers, float(threshold), forward=forward
            )
            expected = LinkPathDistrCapSelector(params)._link_slot(
                links[split:], links[:split], linear, float(threshold), state, forward=forward
            )
            assert [links[k] for k in got.tolist()] == expected

    @pytest.mark.parametrize("seed", [3, 8])
    def test_a_seam_sees_links_on_either_candidate_form(self, seed):
        """A non-lockstep seam gets ``Link`` lists on positional candidates
        too, and what it keeps (or admits, at a slot's cost) maps back."""

        class Thinning(PhaseSeam):
            def __init__(self) -> None:
                self.calls: list[tuple[str, int, list[tuple[int, int]]]] = []

            def stand(self, links, slot):
                self.calls.append(("stand", slot, [link.endpoint_ids for link in links]))
                return links[1:] if slot % 4 == 0 else links

            def admit(self, winners, dual_slot):
                self.calls.append(("admit", dual_slot, [link.endpoint_ids for link in winners]))
                return winners[::2], 1

        params = SINRParameters()
        nodes = _nodes(60, seed)
        state = NetworkState.for_nodes(nodes)
        positioned, links, rounds = _tree_candidates(nodes, seed, state)
        seams = (Thinning(), Thinning())
        got = DistrCapSelector(params).run_phases(positioned, np.random.default_rng(seed), seams[0])
        expected = LinkPathDistrCapSelector(params).run_phases(
            links, np.random.default_rng(seed), seams[1], link_rounds=rounds, state=state
        )
        assert _distr_cap_key(got) == _distr_cap_key(expected)
        assert seams[0].calls == seams[1].calls
        assert any(kind == "admit" and winners for kind, _, winners in seams[0].calls)

    def test_empty_positions_read_no_seed_word(self):
        state = NetworkState.for_nodes(_nodes(4, 1))
        empty = PositionedLinks(state, np.empty(0, np.intp), np.empty(0, np.intp))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert _distr_cap_key(DistrCapSelector(SINRParameters()).select(empty, rng)) == (
            [], 0, 0, True
        )
        assert rng.bit_generator.state == before


class TestPowerControllableOnFirstRead:
    def test_computed_once_on_read(self, monkeypatch):
        nodes = _nodes(40, 6)
        _, links, rounds = _tree_candidates(nodes, 6, NetworkState.for_nodes(nodes))
        params = SINRParameters()
        result = DistrCapSelector(params).select(links, np.random.default_rng(6), link_rounds=rounds)
        calls = []

        def counting(selected, params_, *args, **kwargs):
            calls.append(len(selected))
            return is_power_controllable(selected, params_, *args, **kwargs)

        monkeypatch.setattr("repro.core.distr_cap.is_power_controllable", counting)
        assert "power_controllable" not in vars(result)
        first = result.power_controllable
        assert result.power_controllable is first and calls == [len(result.selected)]
        assert first == is_power_controllable(list(result.selected), params)

    def test_a_given_verdict_is_kept(self):
        assert DistrCapResult(LinkSet(), 2, 1, False).power_controllable is False
        assert DistrCapResult(LinkSet(), 2, 1, power_controllable=True).power_controllable

    def test_results_compare_by_selection(self):
        nodes = _nodes(10, 1)
        links = LinkSet([Link(nodes[0], nodes[1])])
        lazy = DistrCapResult(links, 2, 1, params=SINRParameters())
        assert lazy == DistrCapResult(links, 2, 1, True)
        # The netsim result carries the lockstep fields over, read or not.
        for outcome in (lazy, DistrCapResult(links, 2, 1, True)):
            net = NetDistrCapResult(**vars(outcome))
            assert net.power_controllable is True and net.selected == links


class TestMeanPowerByPosition:
    @settings(max_examples=60, deadline=None)
    @given(
        case=link_sets(),
        seed=st.integers(0, 2**16),
        model=st.sampled_from(GAIN_MODELS),
        probability=st.sampled_from([None, 0.3, 0.7, 1.0]),
        max_attempts=st.integers(1, 5),
    )
    def test_a_dense_caller_store_equals_the_private_tiled_decode(
        self, case, seed, model, probability, max_attempts
    ):
        nodes, links = case
        params = SINRParameters(gain_model=model)
        # A dense caller store holding every deployed node, not just the
        # endpoints (dense even where the tiled store is forced by size).
        state = NetworkState(nodes)
        state.attenuation_matrix(params.alpha)
        slots = np.array([state.slot_of_id(i) for link in links for i in link.endpoint_ids])
        positioned = PositionedLinks(state, slots[0::2], slots[1::2])
        power = MeanPowerSelector(params).select(links, np.random.default_rng(0)).power
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        kwargs = dict(max_attempts=max_attempts, power=power)
        got = MeanPowerSelector(params, probability=probability).select(positioned, rng, **kwargs)
        expected = LinkPathMeanPowerSelector(params, probability=probability).select(
            links, oracle_rng, **kwargs
        )
        assert _mean_power_key(got) == _mean_power_key(expected)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(case=link_sets(), seed=st.integers(0, 2**16), model=st.sampled_from(GAIN_MODELS))
    def test_link_callers_match_the_link_path(self, case, seed, model):
        _, links = case
        params = SINRParameters(gain_model=model)
        got = MeanPowerSelector(params).select(links, np.random.default_rng(seed))
        expected = LinkPathMeanPowerSelector(params).select(links, np.random.default_rng(seed))
        assert _mean_power_key(got) == _mean_power_key(expected)
        assert [id(link) for link in got.selected] == [id(link) for link in expected.selected]


class TestTreeViaCapacityByPosition:
    @pytest.mark.parametrize("rho", [1, 6])
    def test_empty_mean_power_selection(self, rho, monkeypatch):
        def nothing(self, candidates, rng, **kwargs):
            return MeanPowerSelectionResult(LinkSet(), kwargs["power"], 2, 1, 0.5)

        for selector in (MeanPowerSelector, LinkPathMeanPowerSelector):
            monkeypatch.setattr(selector, "select", nothing)
        constants = TreeViaCapacity(SINRParameters()).constants.with_overrides(degree_cap_rho=rho)
        got, expected = _run_both(_nodes(12, 4), 4, "mean", constants)
        assert_same_tvc(got, expected)
        assert all(record.selected_links == 1 for record in got[0].iterations)

    @pytest.mark.parametrize("mode", ["arbitrary", "mean"])
    def test_fading_matches_the_link_path(self, mode):
        params = SINRParameters(gain_model=LogNormalShadowing(sigma_db=1.0, seed=9))
        nodes = _nodes(48, 8)
        results = []
        for cls in (TreeViaCapacity, ReferenceTreeViaCapacity):
            rng = np.random.default_rng(8)
            results.append((cls(params, power_mode=mode).build(nodes, rng), rng.bit_generator.state))
        assert_same_tvc(*results)

    @pytest.mark.parametrize("mode", ["arbitrary", "mean"])
    def test_tiled_store_matches_the_dense_one(self, mode, monkeypatch):
        nodes = _nodes(80, 5)
        dense = TreeViaCapacity(SINRParameters(), power_mode=mode).build(
            nodes, np.random.default_rng(5)
        )
        monkeypatch.setattr(network, "DENSE_BUDGET_BYTES", 0)
        rng = np.random.default_rng(5)
        tiled = TreeViaCapacity(SINRParameters(), power_mode=mode).build(nodes, rng)
        assert_same_tvc((tiled, rng.bit_generator.state), (dense, rng.bit_generator.state))

    @pytest.mark.parametrize("mode", ["arbitrary", "mean"])
    def test_obs_counters_leave_results_alone(self, mode):
        nodes = _nodes(40, 3)
        builder = TreeViaCapacity(SINRParameters(), power_mode=mode)
        plain_rng = np.random.default_rng(3)
        plain = builder.build(nodes, plain_rng)
        observed_rng = np.random.default_rng(3)
        with telemetry() as registry:
            observed = builder.build(nodes, observed_rng)
            builder.build(nodes[:1], np.random.default_rng(3))
        assert_same_tvc(
            (observed, observed_rng.bit_generator.state), (plain, plain_rng.bit_generator.state)
        )
        assert registry.counter_value("core.tvc.iterations") == len(plain.iterations)
        assert registry.counter_value("core.tvc.construction_slots") == plain.construction_slots


def test_geometry_state_maps_links_to_their_store_slots():
    nodes = _nodes(12, 9)
    links = [Link(nodes[3], nodes[5]), Link(nodes[5], nodes[0]), Link(nodes[3], nodes[0])]
    own = _geometry_state(links, None)
    assert own.links() == links and len(own.state) == 3
    given_store = NetworkState(nodes[::-1])
    mapped = _geometry_state(links, given_store)
    assert mapped.state is given_store and mapped.links() == links
