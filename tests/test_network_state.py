"""Tests for the NetworkState backbone (repro.state).

The heart of the suite is a Hypothesis-style property test: seeded random
sequences of interleaved add/remove/move events are driven through one
``NetworkState`` (sized to cross capacity-growth boundaries repeatedly) and
after *every* step each derived matrix - distance, attenuation at several
exponents, fade under every gain model - is asserted bitwise equal to a
from-scratch rebuild at the current membership.  The view/channel layers are
pinned the same way: a cache that lived through churn must decode exactly
like one built fresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics import DeterministicPathLoss, LogNormalShadowing, RayleighFading
from repro.geometry import Node, Point, uniform_random
from repro.links import Link
from repro.sinr import (
    CachedChannel,
    LinkArrayCache,
    NodeArrayCache,
    SINRParameters,
    UniformPower,
)
from repro.state import NetworkState, attenuation_from_distances, pairwise_distances

from .oracles import link_affectance_block

ALPHAS = (2.5, 3.0)
SHADOW = LogNormalShadowing(sigma_db=5.0, seed=42)


def _node(node_id: int, rng: np.random.Generator) -> Node:
    x, y = rng.uniform(0.0, 50.0, size=2)
    return Node(id=node_id, position=Point(float(x), float(y)))


def _seed_attenuation(dist: np.ndarray, alpha: float) -> np.ndarray:
    """Seed-convention oracle for :func:`attenuation_from_distances`."""
    return np.where(dist <= 0, 0.0, np.maximum(dist, 1e-300) ** alpha)


def _materialize(state: NetworkState) -> None:
    state.distance_matrix()
    for alpha in ALPHAS:
        state.attenuation_matrix(alpha)
    state.fade_matrix(SHADOW)


def _assert_matches_rebuild(state: NetworkState) -> None:
    """Every live-slot block of every derived matrix equals a fresh rebuild."""
    live = state.live_slots()
    nodes = [state.node_at(slot) for slot in live.tolist()]
    fresh = NetworkState(nodes)
    block = np.ix_(live, live)
    assert np.array_equal(state.xy[live], fresh.xy[: len(nodes)])
    assert np.array_equal(state.ids[live], fresh.ids[: len(nodes)])
    assert np.array_equal(state.distance_matrix()[block], fresh.distance_matrix())
    for alpha in ALPHAS:
        assert np.array_equal(
            state.attenuation_matrix(alpha)[block], fresh.attenuation_matrix(alpha)
        )
    assert np.array_equal(state.fade_matrix(SHADOW)[block], fresh.fade_matrix(SHADOW))


class TestKernels:
    def test_pairwise_distances_matches_hypot(self, rng):
        a = rng.uniform(0.0, 10.0, size=(6, 2))
        b = rng.uniform(0.0, 10.0, size=(4, 2))
        expected = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        assert np.array_equal(pairwise_distances(a, b), expected)
        assert np.array_equal(pairwise_distances(a), pairwise_distances(a, a))

    def test_attenuation_matches_seed_convention_exactly(self, rng):
        """Parity oracle: ``d**alpha`` with colocated pairs stored as zero."""
        dist = rng.uniform(0.0, 10.0, size=(7, 7))
        np.fill_diagonal(dist, 0.0)
        expected = _seed_attenuation(dist, 3.5)
        assert np.array_equal(attenuation_from_distances(dist, 3.5), expected)

    def test_attenuation_kernel_convention(self):
        dist = np.array([[0.0, 2.0], [3.0, 0.0]])
        att = attenuation_from_distances(dist, 3.0)
        assert att[0, 0] == 0.0 and att[1, 1] == 0.0
        assert att[0, 1] == 2.0**3.0 and att[1, 0] == 3.0**3.0
        # Dividing a positive power by the kernel output reproduces the
        # np.where(dist <= 0, inf, P / max(dist, 1e-300)**alpha) convention.
        with np.errstate(divide="ignore"):
            received = 5.0 / att
        assert received[0, 0] == np.inf

    def test_both_caches_route_through_one_kernel(self, rng, params):
        """The d**alpha denominator is the same kernel for nodes and links."""
        nodes = uniform_random(8, rng)
        node_cache = NodeArrayCache(nodes)
        expected = attenuation_from_distances(
            np.array(node_cache.distance_matrix()), params.alpha
        )
        assert np.array_equal(node_cache.attenuation_matrix(params.alpha), expected)

        links = [Link(nodes[i], nodes[i + 1]) for i in range(0, 6, 2)]
        link_cache = LinkArrayCache(links)
        with np.errstate(divide="ignore"):
            gains = 1.0 / attenuation_from_distances(
                np.array(link_cache.distance_matrix().T), params.alpha
            )
        assert np.array_equal(link_cache.gain_matrix(params), gains)


class TestNetworkStateBasics:
    def test_initial_population_and_capacity(self, rng):
        nodes = uniform_random(10, rng)
        state = NetworkState(nodes)
        assert len(state) == 10 and state.capacity == 10
        assert [n.id for n in state] == [n.id for n in nodes]
        reserved = NetworkState(nodes, capacity=32)
        assert reserved.capacity == 32 and len(reserved) == 10

    def test_validation(self, rng):
        nodes = uniform_random(4, rng)
        with pytest.raises(ValueError):
            NetworkState(nodes, capacity=2)
        with pytest.raises(ValueError):
            NetworkState(nodes + [nodes[0]])
        state = NetworkState(nodes)
        with pytest.raises(ValueError):
            state.add_nodes([nodes[0]])
        with pytest.raises(KeyError):
            state.remove_nodes([999])
        with pytest.raises(ValueError):
            state.fade_matrix(RayleighFading(seed=1))  # slot-dependent

    def test_from_links_dedupes_endpoints_in_first_appearance_order(self, rng):
        nodes = uniform_random(5, rng)
        links = [Link(nodes[0], nodes[1]), Link(nodes[2], nodes[0]), Link(nodes[1], nodes[3])]
        state = NetworkState.from_links(links)
        assert [n.id for n in state] == [nodes[0].id, nodes[1].id, nodes[2].id, nodes[3].id]
        assert len(state) == 4

    def test_remove_releases_slot_and_add_reuses_it(self, rng):
        nodes = uniform_random(5, rng)
        state = NetworkState(nodes)
        slot = state.slot_of_id(nodes[2].id)
        state.remove_nodes([nodes[2].id])
        assert len(state) == 4 and nodes[2].id not in state
        newcomer = _node(100, rng)
        assigned = state.add_nodes([newcomer])
        assert assigned.tolist() == [slot]  # lowest free slot reused
        assert state.capacity == 5  # no growth needed

    def test_growth_preserves_live_values_bitwise(self, rng):
        nodes = uniform_random(6, rng)
        state = NetworkState(nodes)
        _materialize(state)
        before = {
            "dist": np.array(state.distance_matrix()),
            "fade": np.array(state.fade_matrix(SHADOW)),
        }
        state.add_nodes([_node(50 + k, rng) for k in range(4)])  # forces growth
        assert state.capacity >= 10
        assert np.array_equal(state.distance_matrix()[:6, :6], before["dist"])
        assert np.array_equal(state.fade_matrix(SHADOW)[:6, :6], before["fade"])
        _assert_matches_rebuild(state)

    def test_deterministic_model_fades_stay_none(self, rng):
        state = NetworkState(uniform_random(4, rng))
        assert state.fade_matrix(DeterministicPathLoss()) is None
        state.add_nodes([_node(77, rng)])
        assert state.fade_matrix(DeterministicPathLoss()) is None

    def test_patch_cost_counter_is_o_damage(self, rng):
        state = NetworkState(uniform_random(64, rng), capacity=80)
        _materialize(state)
        base = state.cells_patched
        state.add_nodes([_node(1000, rng)])
        added = state.cells_patched - base
        # One node patched: 2 * capacity cells per geometry matrix (dist +
        # two alphas + fade rows/cols) - far below a capacity**2 rebuild.
        assert 0 < added <= 8 * state.capacity
        assert added < state.capacity**2


class TestChurnSequenceProperty:
    """Random interleaved add/remove/move vs from-scratch rebuild, bitwise."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleavings_match_rebuild(self, seed):
        rng = np.random.default_rng([0xA11CE, seed])
        nodes = uniform_random(12, rng)
        # Tight capacity so additions repeatedly cross growth boundaries.
        state = NetworkState(nodes, capacity=13)
        _materialize(state)
        next_id = max(n.id for n in nodes) + 1
        for _ in range(40):
            op = rng.integers(0, 3)
            if op == 0:  # add 1-3 nodes
                count = int(rng.integers(1, 4))
                state.add_nodes([_node(next_id + k, rng) for k in range(count)])
                next_id += count
            elif op == 1 and len(state) > 2:  # remove 1-2 nodes
                ids = [int(i) for i in state.ids[state.live_slots()]]
                count = min(int(rng.integers(1, 3)), len(ids) - 1)
                victims = rng.choice(ids, size=count, replace=False)
                state.remove_nodes(victims.tolist())
            else:  # move 1-4 nodes
                live = state.live_slots()
                count = min(int(rng.integers(1, 5)), live.size)
                slots = rng.choice(live, size=count, replace=False).astype(np.intp)
                new_xy = state.xy[slots] + rng.normal(0.0, 2.0, size=(count, 2))
                state.move_nodes(slots, new_xy)
            _assert_matches_rebuild(state)

    def test_view_survives_churn_like_fresh_cache(self, rng):
        """A NodeArrayCache that lived through churn equals a fresh one."""
        nodes = uniform_random(16, rng)
        cache = NodeArrayCache(nodes)
        for alpha in ALPHAS:
            cache.attenuation_matrix(alpha)
        cache.remove_ids([nodes[3].id, nodes[9].id])
        cache.add_nodes([_node(200, rng), _node(201, rng)])
        idx = np.array([0, 5, 10], dtype=np.intp)
        cache.update_positions(idx, cache.xy[idx] + rng.normal(0.0, 1.0, size=(3, 2)))

        fresh = NodeArrayCache(cache.nodes)
        assert np.array_equal(cache.ids, fresh.ids)
        assert np.array_equal(cache.xy, fresh.xy)
        assert np.array_equal(cache.distance_matrix(), fresh.distance_matrix())
        for alpha in ALPHAS:
            assert np.array_equal(
                cache.attenuation_matrix(alpha), fresh.attenuation_matrix(alpha)
            )
        assert np.array_equal(cache.fade_matrix(SHADOW), fresh.fade_matrix(SHADOW))
        # Block accessors gather the same values the dense matrices hold.
        rows = np.array([1, 4], dtype=np.intp)
        cols = np.array([0, 2, 7], dtype=np.intp)
        assert np.array_equal(
            cache.state.distance_rect(cache.slots[rows], cache.slots[cols]),
            cache.distance_matrix()[np.ix_(rows, cols)],
        )
        assert np.array_equal(
            cache.attenuation_block(ALPHAS[0], rows, cols),
            cache.attenuation_matrix(ALPHAS[0])[np.ix_(rows, cols)],
        )
        assert np.array_equal(
            cache.fade_block(SHADOW, rows, cols),
            cache.fade_matrix(SHADOW)[np.ix_(rows, cols)],
        )

    @pytest.mark.parametrize(
        "gain_model",
        [None, DeterministicPathLoss(), LogNormalShadowing(sigma_db=4.0, seed=9),
         RayleighFading(seed=9)],
        ids=["none", "deterministic", "shadowing", "rayleigh"],
    )
    def test_channel_decode_after_churn_matches_fresh_channel(self, gain_model):
        """Decodes through a churn-survivor channel equal a fresh channel's."""
        rng = np.random.default_rng(77)
        params = SINRParameters(alpha=3.0, beta=1.5, noise=1.0).with_overrides(
            gain_model=gain_model
        )
        nodes = uniform_random(20, rng)
        channel = CachedChannel(params, nodes)
        channel.cache.attenuation_matrix(params.alpha)  # materialize pre-churn
        channel.cache.remove_ids([nodes[2].id, nodes[11].id])
        channel.cache.add_nodes([_node(300, rng), _node(301, rng), _node(302, rng)])
        idx = np.array([0, 6], dtype=np.intp)
        channel.cache.update_positions(idx, channel.cache.xy[idx] + 0.5)

        fresh = CachedChannel(params, channel.cache.nodes)
        tx = np.array([1, 8, 19], dtype=np.intp)
        rx = np.array([0, 3, 6, 12, 20], dtype=np.intp)
        powers = np.full(3, params.min_power_for(2.0))
        for slot in (None, 4):
            survived = channel.resolve_indices(tx, rx, powers, slot=slot)
            rebuilt = fresh.resolve_indices(tx, rx, powers, slot=slot)
            for a, b in zip(survived, rebuilt):
                assert np.array_equal(a, b)


class TestSharedStateViews:
    def test_link_cache_gathers_from_shared_state_bitwise(self, rng, params):
        """Gathered link distances == directly recomputed ones, bitwise."""
        nodes = uniform_random(12, rng)
        links = [Link(nodes[i], nodes[(i + 3) % 12]) for i in range(10)]
        private = LinkArrayCache(links)  # computes hypot itself

        shared = NetworkState(nodes)
        shared.distance_matrix()  # materialized: caches gather from it
        via_state = LinkArrayCache(links, state=shared)
        assert np.array_equal(via_state.distance_matrix(), private.distance_matrix())
        power = UniformPower(5.0)
        assert np.array_equal(
            via_state.affectance_matrix(power, params),
            private.affectance_matrix(power, params),
        )
        rows = np.array([0, 4], dtype=np.intp)
        cols = np.array([1, 2, 9], dtype=np.intp)
        assert np.array_equal(
            link_affectance_block(via_state, rows, cols, power, params),
            link_affectance_block(private, rows, cols, power, params),
        )

    def test_link_cache_rejects_unknown_endpoints(self, rng):
        nodes = uniform_random(4, rng)
        state = NetworkState(nodes[:2])
        with pytest.raises(ValueError):
            LinkArrayCache([Link(nodes[2], nodes[3])], state=state)

    def test_channel_and_node_cache_share_one_store(self, rng, params):
        nodes = uniform_random(10, rng)
        state = NetworkState(nodes)
        channel_a = CachedChannel(params, state=state)
        channel_b = CachedChannel(params.with_overrides(beta=1.0), state=state)
        assert channel_a.cache.state is channel_b.cache.state
        # Materializing through one view is visible through the other
        # (same underlying matrix object).
        a = channel_a.cache.distance_matrix()
        b = channel_b.cache.distance_matrix()
        assert np.array_equal(a, b)

    def test_sync_reanchors_view_order(self, rng):
        nodes = uniform_random(6, rng)
        state = NetworkState(nodes)
        cache = NodeArrayCache(nodes, state=state)
        reordered = list(reversed(nodes))
        cache.sync(reordered)
        assert [n.id for n in cache.nodes] == [n.id for n in reordered]
        fresh = NodeArrayCache(reordered)
        assert np.array_equal(cache.distance_matrix(), fresh.distance_matrix())
