"""Init's coin blocks are raw words converted at once; pin them to ``random()``.

``_CoinStreams`` reads each node's block from ``bit_generator.random_raw``
and converts it with ``Generator.random``'s formula.  Every coin it hands
out must equal the scalar ``random()`` the node's own generator would give,
through several refills and with every node's cursor at a different place.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.init_tree import _COIN_BLOCK, _CoinStreams
from repro.runtime import spawn_agent_rngs

#: Draw steps of a run: node 0 draws in each one, so its row refills 3 times.
STEPS = 3 * _COIN_BLOCK + 5


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    share=st.floats(0.1, 0.9),
)
def test_coins_equal_scalar_draws(seed, n, share):
    streams = _CoinStreams(spawn_agent_rngs(np.random.default_rng(seed), n))
    twins = spawn_agent_rngs(np.random.default_rng(seed), n)
    schedule = np.random.default_rng(seed + 1)
    for _ in range(STEPS):
        drawing = schedule.random(n) < share
        drawing[0] = True
        # Positions in any order, as an ack slot passes them.
        pos = schedule.permutation(np.flatnonzero(drawing))
        coins = streams.draw(pos)
        assert coins.tolist() == [twins[i].random() for i in pos.tolist()]
    # Every stream sits exactly where its twin does.
    assert all(
        streams.draw(np.array([i])).tolist() == [twins[i].random()] for i in range(n)
    )


def test_empty_draw_moves_no_cursor():
    streams = _CoinStreams(spawn_agent_rngs(np.random.default_rng(5), 3))
    twin = spawn_agent_rngs(np.random.default_rng(5), 3)[1]
    assert streams.draw(np.zeros(0, dtype=np.intp)).size == 0
    assert streams.draw(np.array([1])).tolist() == [twin.random()]
