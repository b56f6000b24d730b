"""The one randomness model (``repro.coins``) and Init's round coin tables.

Every protocol, fade and fault coin is a SplitMix64 counter hash.  The first
two classes pin the hash itself: the pure-int fold equals the NumPy fold,
and the integer bound ``_uniform_cut`` equals the float draw.

The next pin Init's coins.  ``_InitProgram.begin_round`` hashes a whole
round's coins in one table; each must equal the scalar coin
``_hash_int(_INIT_STREAM, seed, id, slot) < _uniform_cut(p)`` that the
per-agent oracle flips, for arbitrary ids and slots.  Run end to end, the
lockstep builder and the netsim builder (crash windows across round edges,
recoveries mid-round, a transport ``slot_offset``, completion patches)
broadcast in each broadcast slot exactly the active, up nodes whose scalar
broadcast coin is heads, and every acker's scalar ack coin is heads.

The last pin the link protocols' coins against scalar hashes - Distr-Cap's
attempts, mean-power sampling and distributed scheduling's attempts and ties
- and check that every public protocol call reads exactly one seed word, so
no protocol's coins depend on how many coins an earlier call flipped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coins import (
    _hash_from,
    _hash_int,
    _hash_u64,
    _uniform_cut,
    _uniform_open,
    _word,
    seed_word,
)
from repro.constants import DEFAULT_CONSTANTS, AlgorithmConstants
from repro.core import (
    DistrCapSelector,
    DistributedScheduler,
    InitialTreeBuilder,
    MeanPowerSelector,
    distributed_scheduling,
)
from repro.core.distr_cap import _DISTR_CAP_STREAM, _geometry_state, _phases
from repro.core.init_tree import _INIT_STREAM, _InitProgram
from repro.core.mean_power_selection import _MEAN_POWER_STREAM
from repro.exceptions import ConvergenceError
from repro.geometry import Node, Point
from repro.links import Link
from repro.netsim import CrashSchedule, CrashWindow, FaultPlan, NetInitBuilder, election_priority
from repro.netsim.election import _ELECTION_STREAM
from repro.sinr import SINRParameters, UniformPower

PARAMS = SINRParameters()
#: Few slot-pairs per round: runs cross many round edges, some sweep twice.
FEW_PAIRS = AlgorithmConstants(slot_pairs_per_round_factor=0.5, min_slot_pairs_per_round=2)


class TestScalarHash:
    """The pure-int SplitMix64 is the NumPy hash, value for value."""

    word = st.integers(-(2**63), 2**64 - 1)

    @settings(max_examples=200, deadline=None)
    @given(components=st.lists(word, min_size=1, max_size=5))
    def test_matches_numpy_hash(self, components):
        # ``_hash_from`` folds every component in NumPy, scalars included.
        numpy_hash = _hash_from(np.uint64(0), *components)
        assert _hash_int(*components) == int(numpy_hash)
        assert type(_hash_u64(*components)) is type(numpy_hash)
        assert _hash_u64(*components) == numpy_hash

    @settings(max_examples=100, deadline=None)
    @given(
        lead=st.lists(word, max_size=3),
        ids=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6),
        tail=st.lists(word, max_size=2),
    )
    def test_scalar_lead_matches_numpy_fold(self, lead, ids, tail):
        ids = np.array(ids, dtype=np.int64)
        expected = _hash_from(np.uint64(0), *lead, ids, *tail)
        assert np.array_equal(_hash_u64(*lead, ids, *tail), expected)
        assert np.array_equal(_hash_from(_hash_u64(*lead, ids), *tail), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([2**63 - 1, 2**63, 2**64 - 1])),
        node_id=st.integers(-(2**63), 2**63 - 1),
    )
    def test_election_priority_unchanged(self, seed, node_id):
        draw, tie = election_priority(seed, node_id)
        reference = float(_uniform_open(_hash_u64(_ELECTION_STREAM, seed, node_id)))
        assert (type(draw), type(tie)) == (float, int)
        assert (draw, tie) == (reference, node_id)

    @pytest.mark.parametrize("value", [2**64, -(2**63) - 1])
    def test_out_of_range_overflows_alike(self, value):
        with pytest.raises(OverflowError):
            _hash_u64(1, value)
        with pytest.raises(OverflowError):
            _hash_int(1, value)
        with pytest.raises(OverflowError):
            _hash_from(np.uint64(0), 1, value)


class TestUniformCut:
    """``h < _uniform_cut(p)`` is the float draw ``_uniform_open(h) < p``."""

    probs = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, 2.0**-53, 2.0**-52, 3 * 2.0**-53, 0.1, 0.5, 1 - 2.0**-53]),
    )

    @settings(max_examples=300, deadline=None)
    @given(prob=probs, delta=st.integers(-4096, 4096))
    def test_matches_float_draw_at_the_bound(self, prob, delta):
        h = np.array([min(max(int(_uniform_cut(prob)) + delta, 0), 2**64 - 1)], dtype=np.uint64)
        assert (_uniform_open(h) < prob).tolist() == (h < _uniform_cut(prob)).tolist()

    @settings(max_examples=300, deadline=None)
    @given(prob=probs, h=st.integers(0, 2**64 - 1))
    def test_matches_float_draw_anywhere(self, prob, h):
        word = np.array([h], dtype=np.uint64)
        assert (_uniform_open(word) < prob).tolist() == (word < _uniform_cut(prob)).tolist()

    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(-(2**63), 2**64 - 1))
    def test_word_is_the_folded_component(self, value):
        assert _word(value) == np.asarray(value).astype(np.uint64)
        assert _hash_from(np.uint64(7), _word(value)) == _hash_from(np.uint64(7), value)


def test_seed_word_reads_one_full_word():
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    words = [seed_word(rng) for _ in range(200)]
    assert words == twin.integers(1 << 64, size=200, dtype=np.uint64).tolist()
    # The top bit is drawn too: the seed is a whole 64-bit word.
    assert max(words) >= 1 << 63
    assert rng.bit_generator.state == twin.bit_generator.state


def heads(seed: int, node_id: int, slot: int, constants: AlgorithmConstants) -> bool:
    """The scalar coin of one node in one slot: broadcast in even slots, ack in odd."""
    p = constants.broadcast_probability if slot % 2 == 0 else constants.ack_probability
    return _hash_int(_INIT_STREAM, seed, node_id, slot) < int(_uniform_cut(p))


def scattered_nodes(n: int, seed: int) -> list[Node]:
    """``n`` nodes with scattered, shuffled (partly negative) ids."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(-(2**40), 2**40, 2**30), size=n, replace=False)
    xy = rng.uniform(0.0, 8.0 * np.sqrt(n), size=(n, 2))
    return [Node(id=int(i), position=Point(float(x), float(y))) for i, (x, y) in zip(ids, xy)]


class TestRoundTable:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 24),
        seed=st.integers(0, 2**64 - 1),
        slot=st.integers(0, 2**40).map(lambda s: 2 * s),
        active=st.lists(st.booleans(), min_size=24, max_size=24),
        constants=st.sampled_from([DEFAULT_CONSTANTS, FEW_PAIRS]),
    )
    def test_table_equals_scalar_coins(self, n, seed, slot, active, constants):
        nodes = scattered_nodes(n, n)
        program = _InitProgram(nodes, PARAMS, constants, seed)
        program.state.active[:] = active[:n]
        program.begin_round(3, slot)
        rows = 2 * constants.slot_pairs_per_round(n)
        live = np.flatnonzero(active[:n])
        assert program._coins.shape == (rows, live.size)
        for t in range(rows):
            row = program._coins[t]
            assert [bool(row[program._column[i]]) for i in live.tolist()] == [
                heads(seed, nodes[i].id, slot + t, constants) for i in live.tolist()
            ]


class _TransmitSpy:
    """Records every ``_InitProgram`` slot: seed, slot, who was active and
    up when asked, and who transmitted."""

    def __init__(self, monkeypatch):
        self.slots: list[tuple] = []
        real_init, real_transmit = _InitProgram.__init__, _InitProgram.transmit

        def init(program, nodes, params, constants, seed, *store):
            real_init(program, nodes, params, constants, seed, *store)
            program.spied = (seed, [node.id for node in nodes], constants)

        def transmit(program, slot):
            up = program.state.active.copy()
            if program._down is not None:
                up &= ~program._down
            tx, powers = real_transmit(program, slot)
            self.slots.append((program.spied, slot, up, tx.copy()))
            return tx, powers

        monkeypatch.setattr(_InitProgram, "__init__", init)
        monkeypatch.setattr(_InitProgram, "transmit", transmit)

    def check(self) -> int:
        """Assert every recorded slot's coins; return the number of programs."""
        for (seed, ids, constants), slot, up, tx in self.slots:
            if slot % 2 == 0:
                live = np.flatnonzero(up).tolist()
                assert tx.tolist() == [i for i in live if heads(seed, ids[i], slot, constants)]
            else:
                assert all(up[i] and heads(seed, ids[i], slot, constants) for i in tx.tolist())
        assert any(tx.size for _, slot, _, tx in self.slots if slot % 2)
        return len({spied[0] for spied, *_ in self.slots})


@st.composite
def crash_windows(draw, ids):
    """Crash windows that open before and close after round edges."""
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, 40))
        length = draw(st.one_of(st.none(), st.integers(1, 30)))
        end = None if length is None else start + length
        windows.append(CrashWindow(draw(st.sampled_from(ids)), start, end))
    return tuple(windows)


NODES = scattered_nodes(20, 4)


class TestEngineCoins:
    @pytest.mark.parametrize("constants", [DEFAULT_CONSTANTS, FEW_PAIRS], ids=["default", "few"])
    def test_lockstep_flips_the_scalar_coins(self, monkeypatch, constants):
        spy = _TransmitSpy(monkeypatch)
        result = InitialTreeBuilder(PARAMS, constants).build(NODES, np.random.default_rng(5))
        assert result.rounds_used > 1
        assert spy.check() == 1
        assert spy.slots[0][0][0] == seed_word(np.random.default_rng(5))

    @settings(max_examples=15, deadline=None)
    @given(
        data=st.data(),
        slot_offset=st.integers(0, 50),
        seed=st.integers(0, 1000),
    )
    def test_netsim_flips_the_scalar_coins(self, data, slot_offset, seed):
        ids = [node.id for node in NODES]
        plan = FaultPlan(
            seed=seed, drop_prob=0.1, crashes=CrashSchedule(data.draw(crash_windows(ids)))
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            spy = _TransmitSpy(monkeypatch)
            NetInitBuilder(
                PARAMS, FEW_PAIRS, plan=plan, delivery="reliable", slot_offset=slot_offset
            ).build(NODES, np.random.default_rng(seed))
        spy.check()

    def test_slot_offset_keeps_the_coins(self):
        """The transport's slot offset moves fault hashes, not coins: a
        faultless run at any offset is the lockstep run."""
        plan = FaultPlan(seed=1)
        runs = [
            NetInitBuilder(PARAMS, plan=plan, slot_offset=offset).build(
                NODES, np.random.default_rng(6)
            )
            for offset in (0, 7, 1000)
        ]
        lockstep = InitialTreeBuilder(PARAMS).build(NODES, np.random.default_rng(6))
        for run in runs:
            assert run.tree.parent == lockstep.tree.parent
            assert run.trace.records == lockstep.trace.records


def scattered_links(count: int, seed: int, senders: int) -> list[Link]:
    """``count`` distinct links drawn over ``senders`` senders (several
    links share a sender) and scattered receivers."""
    nodes = scattered_nodes(senders + count, seed)
    rng = np.random.default_rng(seed)
    return [
        Link(nodes[int(rng.integers(senders))], nodes[senders + k]) for k in range(count)
    ]


def link_heads(stream: int, seed: int, link: Link, *tail: int, p: float) -> bool:
    return _hash_int(stream, seed, link.sender.id, link.receiver.id, *tail) < int(_uniform_cut(p))


class TestLinkCoins:
    @settings(max_examples=25, deadline=None)
    @given(rng_seed=st.integers(0, 2**32 - 1), p=st.floats(0.0, 1.0))
    def test_distr_cap_phases_flip_their_forward_slot(self, rng_seed, p):
        """With no survivor every phase's whole class stands, so phase ``i``
        attempts exactly its links whose coin in forward slot ``2 i`` is heads."""
        links = scattered_links(40, 7, 10)
        forward_calls: list[list[Link]] = []

        def record(self, candidates, attempting, *rest, forward):
            if forward:
                forward_calls.append([links[i] for i in attempting.tolist()])
            return attempting[:0]

        selector = DistrCapSelector(PARAMS, constants=AlgorithmConstants(selection_probability=p))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DistrCapSelector, "_phase_slot", record)
            result = selector.select(links, np.random.default_rng(rng_seed))
        seed = seed_word(np.random.default_rng(rng_seed))
        phases = [
            [links[i] for i in phase.tolist()] for phase in _phases(_geometry_state(links, None))
        ]
        want = [
            [link for link in phase if link_heads(_DISTR_CAP_STREAM, seed, link, 2 * i, p=p)]
            for i, phase in enumerate(phases)
        ]
        assert len(phases) > 2
        assert result.slots_used == 2 * len(phases) and forward_calls == want

    def test_mean_power_samples(self, monkeypatch):
        links = scattered_links(40, 2, 12)
        sampled: list[list[Link]] = []

        def record(self, ends, picked, *rest):
            sampled.append([links[i] for i in picked.tolist()])
            return picked[:0]

        monkeypatch.setattr(MeanPowerSelector, "_run_slot_pair", record)
        selector = MeanPowerSelector(PARAMS, probability=0.3)
        result = selector.select(links, np.random.default_rng(4), max_attempts=6)
        seed = seed_word(np.random.default_rng(4))
        want = [
            [link for link in links if link_heads(_MEAN_POWER_STREAM, seed, link, k, p=0.3)]
            for k in range(1, 7)
        ]
        assert result.attempts == 6 and sampled == [pick for pick in want if pick]

    def test_scheduler_attempts_and_ties(self, monkeypatch):
        """Every frame's attempts: per sender, the waiting heads link with the
        smallest tie hash; probabilities decay on a failed attempt and
        recover while idle."""
        links = scattered_links(30, 3, 6)
        frames: list[list[int]] = []

        def fail_all(self, attempts, *rest):
            frames.append(attempts.tolist())
            return np.zeros(attempts.size, dtype=bool)

        monkeypatch.setattr(DistributedScheduler, "_run_frame_indices", fail_all)
        scheduler = DistributedScheduler(PARAMS)
        with pytest.raises(ConvergenceError):
            scheduler.schedule(links, UniformPower(1.0), np.random.default_rng(8), max_frames=40)
        seed = seed_word(np.random.default_rng(8))
        base = DEFAULT_CONSTANTS.scheduling_base_probability
        probability = [base] * len(links)
        want: list[list[int]] = []
        contested = 0
        for frame in range(1, 41):
            best: dict[int, tuple[int, int]] = {}
            for i, link in enumerate(links):
                ends = (link.sender.id, link.receiver.id)
                coin = _hash_int(distributed_scheduling._ATTEMPT_STREAM, seed, *ends, frame)
                if ((coin >> 11) + 1) * 2.0**-53 < probability[i]:
                    tie = _hash_int(distributed_scheduling._TIE_STREAM, seed, *ends, frame)
                    contested += link.sender.id in best
                    best[link.sender.id] = min(best.get(link.sender.id, (tie, i)), (tie, i))
            if not best:
                continue
            chosen = sorted(i for _, i in best.values())
            want.append(chosen)
            for i in range(len(links)):
                if i in chosen:
                    failed = probability[i] * scheduler.decay
                    probability[i] = max(scheduler.min_probability, failed)
                else:
                    probability[i] = min(base, probability[i] * scheduler.recovery)
        assert frames == want
        assert contested


class TestOneSeedWordPerCall:
    """A protocol call reads one word, however many coins it flips."""

    def _twin_after_one_word(self, seed: int) -> np.random.Generator:
        twin = np.random.default_rng(seed)
        seed_word(twin)
        return twin

    def test_each_protocol_reads_one_word(self):
        nodes = scattered_nodes(24, 6)
        links = scattered_links(16, 6, 16)
        calls = {
            "init": lambda rng: InitialTreeBuilder(PARAMS).build(nodes, rng),
            "distr_cap": lambda rng: DistrCapSelector(PARAMS).select(links, rng),
            "mean_power": lambda rng: MeanPowerSelector(PARAMS).select(links, rng),
            "scheduling": lambda rng: DistributedScheduler(PARAMS).schedule(
                links, UniformPower.for_max_length(PARAMS, 60.0), rng
            ),
        }
        for name, call in calls.items():
            rng = np.random.default_rng(11)
            call(rng)
            twin = self._twin_after_one_word(11)
            assert rng.bit_generator.state == twin.bit_generator.state, name
