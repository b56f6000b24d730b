"""Parity and consistency tests for the whole-set link arrays.

The seed implementations of ``affectance_matrix``, ``sinr_values`` and
``gain_matrix`` are frozen below, verbatim, and
:class:`~repro.sinr.PositionedLinks`' whole-set forms are required to match
them and the ``Link``-keyed cache they replaced
(``tests/oracles/link_arrays.py``) **bit-for-bit** (``np.array_equal``, no
tolerance) across randomized instances, power schemes, gain models and
degenerate sets.  The incremental :class:`AffectanceAccumulator` and the
greedy loops built on it are checked against brute-force recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.capacity import first_fit_schedule, select_feasible_subset
from repro.dynamics import LogNormalShadowing, RayleighFading
from repro.geometry import uniform_random
from repro.links import Link
from repro.sinr import (
    AffectanceAccumulator,
    CachedChannel,
    Channel,
    ExplicitPower,
    LinearPower,
    MeanPower,
    PositionedLinks,
    SINRParameters,
    Transmission,
    UniformPower,
    affectance_matrix,
    feasibility_report,
    is_feasible,
    sinr_values,
)
from repro.core.power_solver import gain_matrix
from repro.state import NetworkState

from .conftest import make_node
from .oracles import LinkArrayCache, link_affectance_block
from .oracles.link_arrays import affectance_matrix_from_arrays, sinr_values_from_arrays


# -- frozen seed implementations (do not modify) ----------------------------


def _seed_affectance_matrix(links, power, params):
    m = len(links)
    if m == 0:
        return np.zeros((0, 0), dtype=float)
    sender_xy = np.array([[l.sender.x, l.sender.y] for l in links], dtype=float)
    receiver_xy = np.array([[l.receiver.x, l.receiver.y] for l in links], dtype=float)
    sender_ids = np.array([l.sender.id for l in links])
    lengths = np.array([l.length for l in links], dtype=float)
    powers = np.array(power.powers(links), dtype=float)
    if np.any(powers <= 0):
        raise ValueError("all link powers must be positive")

    cap = 1.0 + params.epsilon
    if params.noise == 0:
        costs = np.full(m, params.beta)
    else:
        margins = 1.0 - params.beta * params.noise * lengths**params.alpha / powers
        costs = np.where(margins > 0, params.beta / np.maximum(margins, 1e-300), np.inf)

    diff = sender_xy[:, None, :] - receiver_xy[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = (
            costs[None, :]
            * (powers[:, None] / powers[None, :])
            * (lengths[None, :] / np.maximum(dist, 1e-300)) ** params.alpha
        )
    raw = np.where(dist <= 0, np.inf, raw)
    matrix = np.minimum(cap, raw)
    same_sender = sender_ids[:, None] == sender_ids[None, :]
    matrix[same_sender] = 0.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _seed_sinr_values(links, power, params):
    m = len(links)
    if m == 0:
        return np.zeros(0, dtype=float)
    sender_xy = np.array([[l.sender.x, l.sender.y] for l in links], dtype=float)
    receiver_xy = np.array([[l.receiver.x, l.receiver.y] for l in links], dtype=float)
    sender_ids = np.array([l.sender.id for l in links])
    lengths = np.array([l.length for l in links], dtype=float)
    powers = np.array(power.powers(links), dtype=float)

    diff = sender_xy[:, None, :] - receiver_xy[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    with np.errstate(divide="ignore"):
        received = powers[:, None] / np.maximum(dist, 1e-300) ** params.alpha
    signal = powers / lengths**params.alpha
    same_sender = sender_ids[:, None] == sender_ids[None, :]
    interference_matrix = np.where(same_sender, 0.0, received)
    interference = interference_matrix.sum(axis=0)
    return signal / (params.noise + interference)


def _seed_gain_matrix(links, params):
    m = len(links)
    if m == 0:
        return np.zeros((0, 0), dtype=float)
    senders = np.array([[l.sender.x, l.sender.y] for l in links], dtype=float)
    receivers = np.array([[l.receiver.x, l.receiver.y] for l in links], dtype=float)
    diff = receivers[:, None, :] - senders[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    with np.errstate(divide="ignore"):
        gains = 1.0 / np.maximum(dist, 1e-300) ** params.alpha
    return np.where(dist <= 0, np.inf, gains)


# -- instance generation -----------------------------------------------------


def _random_links(seed: int, count: int) -> list[Link]:
    rng = np.random.default_rng(seed)
    nodes = uniform_random(2 * count, rng, side=30.0)
    return [Link(nodes[2 * i], nodes[2 * i + 1]) for i in range(count)]


def _power_schemes(links, params):
    longest = max(link.length for link in links)
    return [
        UniformPower.for_max_length(params, longest),
        MeanPower.for_max_length(params, longest),
        LinearPower.for_noise(params),
    ]


PARAM_SETS = [
    SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1),
    SINRParameters(alpha=2.5, beta=1.0, noise=0.0, epsilon=0.5),
    SINRParameters(alpha=4.0, beta=0.5, noise=0.2, epsilon=0.1),
]


# -- bit-for-bit parity ------------------------------------------------------


def _arrays_from_links(links, power):
    """The precomputed inputs of the ``*_from_arrays`` kernels, from links."""
    sender_xy = np.array([[l.sender.x, l.sender.y] for l in links], dtype=float)
    receiver_xy = np.array([[l.receiver.x, l.receiver.y] for l in links], dtype=float)
    diff = sender_xy[:, None, :] - receiver_xy[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    sender_ids = np.array([l.sender.id for l in links])
    same_sender = sender_ids[:, None] == sender_ids[None, :]
    lengths = np.array([l.length for l in links], dtype=float)
    powers = np.array(power.powers(links), dtype=float)
    return dist, same_sender, lengths, powers


@pytest.mark.parametrize("seed,count", [(5, 8), (6, 24)])
@pytest.mark.parametrize("params", PARAM_SETS)
def test_from_arrays_kernels_match_seed_exactly(seed, count, params):
    """Direct parity oracle for the registered array kernels."""
    links = _random_links(seed, count)
    for power in _power_schemes(links, params):
        dist, same_sender, lengths, powers = _arrays_from_links(links, power)
        assert np.array_equal(
            affectance_matrix_from_arrays(dist, same_sender, lengths, powers, params),
            _seed_affectance_matrix(links, power, params),
        )
        assert np.array_equal(
            sinr_values_from_arrays(dist, same_sender, lengths, powers, params),
            _seed_sinr_values(links, power, params),
        )


def _powers(links, power):
    return np.array(power.powers(links), dtype=float)


@pytest.mark.parametrize("seed,count", [(1, 8), (2, 20), (3, 40), (4, 64)])
@pytest.mark.parametrize("params", PARAM_SETS)
def test_affectance_matrix_matches_seed_exactly(seed, count, params):
    links = _random_links(seed, count)
    positioned = PositionedLinks.from_links(links)
    for power in _power_schemes(links, params):
        expected = _seed_affectance_matrix(links, power, params)
        assert np.array_equal(positioned.affectance_matrix(_powers(links, power), params), expected)
        assert np.array_equal(LinkArrayCache(links).affectance_matrix(power, params), expected)
        # The public wrapper, on links and on positioned links.
        assert np.array_equal(affectance_matrix(links, power, params), expected)
        assert np.array_equal(affectance_matrix(positioned, power, params), expected)


@pytest.mark.parametrize("seed,count", [(5, 12), (6, 32)])
@pytest.mark.parametrize("params", PARAM_SETS)
def test_sinr_values_matches_seed_exactly(seed, count, params):
    links = _random_links(seed, count)
    positioned = PositionedLinks.from_links(links)
    for power in _power_schemes(links, params):
        expected = _seed_sinr_values(links, power, params)
        assert np.array_equal(positioned.sinr_values(_powers(links, power), params), expected)
        assert np.array_equal(LinkArrayCache(links).sinr_values(power, params), expected)
        assert np.array_equal(sinr_values(links, power, params), expected)


@pytest.mark.parametrize("seed,count", [(7, 10), (8, 48)])
@pytest.mark.parametrize("params", PARAM_SETS)
def test_gain_matrix_matches_seed_exactly(seed, count, params):
    links = _random_links(seed, count)
    positioned = PositionedLinks.from_links(links)
    expected = _seed_gain_matrix(links, params)
    assert np.array_equal(positioned.gain_matrix(params), expected)
    assert np.array_equal(LinkArrayCache(links).gain_matrix(params), expected)
    assert np.array_equal(gain_matrix(links, params), expected)
    assert np.array_equal(gain_matrix(positioned, params), expected)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_subset_slices_match_direct_computation(seed, params):
    links = _random_links(seed, 30)
    positioned = PositionedLinks.from_links(links)
    power = MeanPower.for_max_length(params, max(l.length for l in links))
    powers = _powers(links, power)
    rng = np.random.default_rng(seed)
    for size in (1, 5, 17):
        indices = rng.choice(len(links), size=size, replace=False)
        sublist = [links[i] for i in indices]
        assert np.array_equal(
            positioned.affectance_block(indices, indices, powers, params),
            _seed_affectance_matrix(sublist, power, params),
        )
        assert np.array_equal(
            PositionedLinks.from_links(sublist, positioned.state).sinr_values(
                powers[indices], params
            ),
            _seed_sinr_values(sublist, power, params),
        )


@pytest.mark.parametrize("seed", [14, 15])
@pytest.mark.parametrize("warm", [False, True])
def test_affectance_block_matches_full_matrix_slice(seed, warm, params):
    links = _random_links(seed, 25)
    power = LinearPower.for_noise(params)
    rng = np.random.default_rng(seed)
    cache = LinkArrayCache(links)
    expected_full = _seed_affectance_matrix(links, power, params)
    if warm:
        cache.affectance_matrix(power, params)  # block should slice the cache
    for _ in range(4):
        rows = rng.choice(len(links), size=int(rng.integers(1, 12)), replace=False)
        cols = rng.choice(len(links), size=int(rng.integers(1, 12)), replace=False)
        block = link_affectance_block(cache, rows, cols, power, params)
        assert np.array_equal(block, expected_full[np.ix_(rows, cols)])
    assert link_affectance_block(cache, [], [0, 1], power, params).shape == (0, 2)


def test_feasibility_matches_on_randomized_instances(params):
    for seed in (21, 22, 23):
        links = _random_links(seed, 16)
        for power in _power_schemes(links, params):
            report = feasibility_report(links, power, params)
            matrix = _seed_affectance_matrix(links, power, params)
            incoming = matrix.sum(axis=0)
            assert report.worst_affectance == float(incoming.max())
            assert report.worst_link_index == int(np.argmax(incoming))
            raw = _seed_sinr_values(links, power, params)
            noise_ok = bool(np.all(raw >= params.beta * (1.0 - 1e-9)))
            expected_sinr_ok = bool(incoming.max() <= 1.0 + 1e-9) and noise_ok
            assert report.sinr_ok == expected_sinr_ok
            # is_feasible defaults to SINR-only feasibility:
            assert is_feasible(links, power, params) == expected_sinr_ok
            assert feasibility_report(PositionedLinks.from_links(links), power, params) == report


def test_empty_and_degenerate_universes(params):
    power = UniformPower(1.0)
    empty = PositionedLinks.from_links([])
    assert empty.affectance_matrix(np.zeros(0), params).shape == (0, 0)
    assert empty.sinr_values(np.zeros(0), params).shape == (0,)
    assert empty.gain_matrix(params).shape == (0, 0)
    assert feasibility_report([], power, params).feasible
    # Co-located interferer saturates at the cap, exactly as the seed did.
    a = make_node(0, 0.0, 0.0)
    b = make_node(1, 1.0, 0.0)
    c = make_node(2, 5.0, 0.0)
    links = [Link(a, b), Link(b, c)]
    assert np.array_equal(
        PositionedLinks.from_links(links).affectance_matrix(_powers(links, power), params),
        _seed_affectance_matrix(links, power, params),
    )


def test_explicit_power_mutation_is_seen(params):
    """Nothing is memoised per assignment: an ``ExplicitPower`` changed in
    place is read afresh by the next call."""
    links = _random_links(33, 4)
    power = ExplicitPower({link.endpoint_ids: 50.0 for link in links})
    before = sinr_values(links, power, params)
    power.set_power(links[0], 500.0)
    after = sinr_values(links, power, params)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, _seed_sinr_values(links, power, params))
    assert np.array_equal(
        affectance_matrix(links, power, params), _seed_affectance_matrix(links, power, params)
    )


# -- whole-set forms against the Link-keyed cache ----------------------------


def _degenerate_sets() -> dict[str, list[Link]]:
    """Small sets with colocated endpoints, shared senders and m in {1, 2}."""
    a, b, c = make_node(0, 0.0, 0.0), make_node(1, 2.0, 0.0), make_node(2, 2.0, 3.0)
    twin = make_node(3, 2.0, 0.0)  # a distinct node at b's position
    far = make_node(4, 9.0, 1.0)
    return {
        "one": [Link(a, b)],
        "two": [Link(a, b), Link(c, far)],
        "receiver-sends": [Link(a, b), Link(b, c)],
        "colocated": [Link(a, b), Link(twin, c), Link(far, twin)],
        "shared-sender": [Link(a, b), Link(a, c), Link(far, c)],
    }


GAIN_MODELS = {
    "none": None,
    "log-normal": LogNormalShadowing(sigma_db=6.0, seed=3),
    "rayleigh": RayleighFading(seed=5),
}


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # one link, no noise
@pytest.mark.parametrize("gain", sorted(GAIN_MODELS))
@pytest.mark.parametrize("noise", [0.0, 0.5])
@pytest.mark.parametrize("case", ["random", *sorted(_degenerate_sets())])
def test_whole_set_forms_match_the_link_cache_bitwise(case, noise, gain):
    params = SINRParameters(alpha=3.0, beta=1.0, noise=noise, gain_model=GAIN_MODELS[gain])
    links = _random_links(81, 24) if case == "random" else _degenerate_sets()[case]
    cache = LinkArrayCache(links)
    private = PositionedLinks.from_links(links)
    shared = NetworkState.for_nodes({n.id: n for l in links for n in (l.sender, l.receiver)}.values())
    if shared.materializes_matrices:
        shared.distance_matrix()  # rectangles are gathered from the matrix
    on_shared = PositionedLinks.from_links(links, shared)
    for power in _power_schemes(links, params):
        powers = _powers(links, power)
        for positioned in (private, on_shared):
            matrix, sinr = positioned.affectance_and_sinr(powers, params)
            assert matrix.tobytes() == cache.affectance_matrix(power, params).tobytes()
            assert sinr.tobytes() == cache.sinr_values(power, params).tobytes()
            assert positioned.affectance_matrix(powers, params).tobytes() == matrix.tobytes()
            assert positioned.sinr_values(powers, params).tobytes() == sinr.tobytes()
        if gain == "none":
            assert matrix.tobytes() == _seed_affectance_matrix(links, power, params).tobytes()
            assert sinr.tobytes() == _seed_sinr_values(links, power, params).tobytes()
    for positioned in (private, on_shared):
        assert positioned.gain_matrix(params).tobytes() == cache.gain_matrix(params).tobytes()
    if gain == "none":
        assert private.gain_matrix(params).tobytes() == _seed_gain_matrix(links, params).tobytes()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_small_sets(m, params):
    links = _random_links(91, 2)[:m]
    positioned = PositionedLinks.from_links(links)
    cache = LinkArrayCache(links)
    power = UniformPower(50.0)
    powers = _powers(links, power)
    assert len(positioned) == m
    assert positioned.affectance_matrix(powers, params).tobytes() == (
        cache.affectance_matrix(power, params).tobytes()
    )
    assert positioned.sinr_values(powers, params).tobytes() == (
        cache.sinr_values(power, params).tobytes()
    )
    assert positioned.gain_matrix(params).tobytes() == cache.gain_matrix(params).tobytes()


def test_from_links_keeps_the_links_and_their_lengths():
    links = _random_links(31, 9)
    positioned = PositionedLinks.from_links(links)
    assert positioned.links() == links
    assert positioned.links(np.array([3, 1])) == [links[3], links[1]]
    assert positioned.lengths.tolist() == [link.length for link in links]
    assert positioned.state.ids[positioned.senders].tolist() == [l.sender.id for l in links]


def test_from_links_rejects_an_absent_endpoint():
    nodes = [make_node(i, float(i), 0.0) for i in range(4)]
    state = NetworkState(nodes[:2])
    with pytest.raises(ValueError, match="not in the shared NetworkState"):
        PositionedLinks.from_links([Link(nodes[2], nodes[3])], state)


def test_non_positive_powers_are_rejected(params):
    links = _random_links(32, 3)
    positioned = PositionedLinks.from_links(links)
    for bad in (np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0, -2.0])):
        with pytest.raises(ValueError, match="must be positive"):
            positioned.affectance_matrix(bad, params)
        with pytest.raises(ValueError, match="must be positive"):
            positioned.affectance_and_sinr(bad, params)


# -- incremental accumulator -------------------------------------------------


def test_accumulator_add_remove_consistency(params):
    links = _random_links(41, 24)
    power = MeanPower.for_max_length(params, max(l.length for l in links))
    matrix = affectance_matrix(links, power, params)
    accumulator = AffectanceAccumulator(matrix)
    rng = np.random.default_rng(41)
    members: list[int] = []
    for _ in range(200):
        if members and rng.random() < 0.4:
            index = members.pop(rng.integers(len(members)))
            accumulator.remove(index)
        else:
            candidates = [i for i in range(len(links)) if i not in members]
            if not candidates:
                continue
            index = candidates[rng.integers(len(candidates))]
            accumulator.add(index)
            members.append(index)
        assert sorted(accumulator.members) == sorted(members)
        expected = matrix[members].sum(axis=0) if members else np.zeros(len(links))
        np.testing.assert_allclose(accumulator.totals(), expected, atol=1e-9)


def test_accumulator_max_total_with_matches_recomputation(params):
    links = _random_links(42, 16)
    power = MeanPower.for_max_length(params, max(l.length for l in links))
    matrix = affectance_matrix(links, power, params)
    accumulator = AffectanceAccumulator(matrix, members=(0, 3, 7))
    for candidate in (1, 2, 5, 11):
        group = [0, 3, 7, candidate]
        submatrix = matrix[np.ix_(group, group)]
        expected = submatrix.sum(axis=0).max()
        assert accumulator.max_total_with(candidate) == pytest.approx(expected, rel=1e-12)


def test_accumulator_guards():
    matrix = np.zeros((3, 3))
    accumulator = AffectanceAccumulator(matrix, members=(1,))
    with pytest.raises(ValueError):
        accumulator.add(1)
    with pytest.raises(ValueError):
        accumulator.remove(0)
    with pytest.raises(ValueError):
        accumulator.max_total_with(1)
    with pytest.raises(ValueError):
        AffectanceAccumulator(np.zeros((2, 3)))


# -- greedy loops vs brute-force recomputation -------------------------------


def _recompute_first_fit(links, power, params, *, exclusive_nodes=True):
    """The seed first-fit loop: full matrix recomputation per placement test."""
    from repro.core.schedule import Schedule

    link_list = sorted(links, key=lambda link: (-link.length, link.endpoint_ids))
    schedule = Schedule()
    slot_members: list[list[Link]] = []
    slot_nodes: list[set[int]] = []
    for link in link_list:
        placed = False
        for slot_index, members in enumerate(slot_members):
            if exclusive_nodes and (
                link.sender.id in slot_nodes[slot_index]
                or link.receiver.id in slot_nodes[slot_index]
            ):
                continue
            candidate = members + [link]
            matrix = _seed_affectance_matrix(candidate, power, params)
            if float(matrix.sum(axis=0).max()) <= 1.0 + 1e-9:
                members.append(link)
                slot_nodes[slot_index].update(link.endpoint_ids)
                schedule.assign(link, slot_index)
                placed = True
                break
        if not placed:
            slot_members.append([link])
            slot_nodes.append(set(link.endpoint_ids))
            schedule.assign(link, len(slot_members) - 1)
    return schedule


@pytest.mark.parametrize("seed,count", [(51, 12), (52, 24), (53, 40)])
def test_first_fit_matches_recompute_baseline(seed, count, mild_params):
    links = _random_links(seed, count)
    power = MeanPower.for_max_length(mild_params, max(l.length for l in links))
    incremental = first_fit_schedule(links, power, mild_params)
    baseline = _recompute_first_fit(links, power, mild_params)
    assert dict(incremental.items()) == dict(baseline.items())


@pytest.mark.parametrize("seed,count", [(61, 16), (62, 32), (63, 56)])
@pytest.mark.parametrize("exclusive_nodes", [True, False])
def test_capacity_selection_stable_under_caching(seed, count, exclusive_nodes, params):
    # The cached selection must admit exactly the links the scalar seed loop
    # admitted (the accumulator adds contributions in the same order).
    from repro.sinr import affectance_between_links
    from repro.core.capacity import _default_linear, _default_uniform

    links = _random_links(seed, count)
    tau = 0.8
    link_list = sorted(links, key=lambda link: (link.length, link.endpoint_ids))
    uniform = _default_uniform(link_list, params)
    linear = _default_linear(params)
    selected: list[Link] = []
    used_nodes: set[int] = set()
    for candidate in link_list:
        if exclusive_nodes and (
            candidate.sender.id in used_nodes or candidate.receiver.id in used_nodes
        ):
            continue
        incoming = sum(
            affectance_between_links(existing, candidate, linear, params)
            for existing in selected
        )
        outgoing = sum(
            affectance_between_links(candidate, existing, uniform, params)
            for existing in selected
        )
        if incoming + outgoing <= tau:
            selected.append(candidate)
            used_nodes.add(candidate.sender.id)
            used_nodes.add(candidate.receiver.id)

    result = select_feasible_subset(links, params, tau=tau, exclusive_nodes=exclusive_nodes)
    assert sorted(l.endpoint_ids for l in result.selected) == sorted(
        l.endpoint_ids for l in selected
    )


# -- cached channel ----------------------------------------------------------


@pytest.mark.parametrize("seed", [71, 72, 73])
def test_cached_channel_matches_plain_channel(seed, params):
    rng = np.random.default_rng(seed)
    nodes = uniform_random(30, rng, side=20.0)
    plain = Channel(params)
    cached = CachedChannel(params, nodes)
    for _ in range(5):
        k = int(rng.integers(2, 10))
        senders = rng.choice(len(nodes), size=k, replace=False)
        transmissions = [
            Transmission(nodes[i], float(rng.uniform(10.0, 5000.0)), f"msg{i}")
            for i in senders
        ]
        listeners = list(nodes)
        expected = plain.resolve(transmissions, listeners)
        got = cached.resolve(transmissions, listeners)
        assert got.keys() == expected.keys()
        for node_id, reception in expected.items():
            assert got[node_id].sender.id == reception.sender.id
            assert got[node_id].message == reception.message
            assert got[node_id].sinr == reception.sinr


def test_cached_channel_falls_back_for_unknown_nodes(params):
    known = [make_node(0, 0.0, 0.0), make_node(1, 3.0, 0.0)]
    stranger = make_node(99, 1.0, 1.0)
    cached = CachedChannel(params, known)
    plain = Channel(params)
    transmissions = [Transmission(stranger, 1000.0, "hello")]
    assert cached.resolve(transmissions, known) == plain.resolve(transmissions, known)
