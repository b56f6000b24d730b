"""``spawn_agent_rngs`` hashes every child's seed in one pass; pin its streams.

Child ``i`` must carry exactly the stream of ``default_rng(seed_i)`` for the
63-bit seed it draws from the parent: the same ``bit_generator.state`` and
the same draws.  The word edges are 0, the last one-word seed ``2**32 - 1``,
the first two-word seed ``2**32`` and the largest drawable seed ``2**63 - 2``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from repro.runtime import spawn_agent_rngs
from repro.runtime.simulator import _seed_states

EDGES = [0, 2**32 - 1, 2**32, 2**63 - 2]
DRAWS = 300
#: The first 63-bit seed ``default_rng(3)`` draws for a child.
_FIRST_SEED = int(np.random.default_rng(3).integers(0, 2**63 - 1, size=1, dtype=np.int64)[0])


class _FixedSeeds:
    """A parent generator stand-in whose 63-bit draws are given."""

    def __init__(self, seeds):
        self.seeds = np.asarray(seeds, dtype=np.int64)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 2**63 - 1, np.int64)
        return self.seeds[:size]


def assert_streams(seeds, children) -> None:
    assert len(children) == len(seeds)
    for seed, child in zip(seeds, children):
        expected = np.random.default_rng(int(seed))
        assert child.bit_generator.state == expected.bit_generator.state
        assert child.random(DRAWS).tolist() == expected.random(DRAWS).tolist()


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**63 - 2), max_size=12))
def test_given_seeds_and_word_edges(seeds):
    seeds = seeds + EDGES
    assert_streams(seeds, spawn_agent_rngs(_FixedSeeds(seeds), len(seeds)))


@settings(max_examples=25, deadline=None)
@given(parent_seed=st.integers(0, 2**64 - 1), count=st.integers(0, 24))
def test_drawn_seeds(parent_seed, count):
    parent, twin = np.random.default_rng(parent_seed), np.random.default_rng(parent_seed)
    children = spawn_agent_rngs(parent, count)
    assert_streams(twin.integers(0, 2**63 - 1, size=count, dtype=np.int64), children)
    # The parent advanced by exactly the seed draw.
    assert parent.bit_generator.state == twin.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=16))
def test_hashed_states_equal_seed_sequence(seeds):
    states = _seed_states(np.array(seeds + EDGES, dtype=np.uint64))
    assert states.shape == (len(seeds) + len(EDGES), 4)
    assert states.flags.c_contiguous
    for seed, row in zip(seeds + EDGES, states):
        assert row.tolist() == SeedSequence(seed).generate_state(4, np.uint64).tolist()


def test_child_seed_state_answers_only_pcg64():
    (child,) = spawn_agent_rngs(np.random.default_rng(3), 1)
    seed_seq = child.bit_generator.seed_seq
    expected = SeedSequence(_FIRST_SEED).generate_state(4, np.uint64).tolist()
    for dtype in (np.uint64, np.dtype("uint64"), "u8", "uint64"):
        assert seed_seq.generate_state(4, dtype).tolist() == expected
    with pytest.raises(ValueError, match="four uint64 words"):
        seed_seq.generate_state(8)
    with pytest.raises(ValueError, match="four uint64 words"):
        seed_seq.generate_state(4, np.uint32)
