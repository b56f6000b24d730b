"""``NetDistrCapBuilder`` against the forked phase loop it replaced.

The builder runs ``DistrCapSelector``'s one phase loop through a fault seam;
:class:`~tests.oracles.distr_cap.ReferenceNetDistrCapBuilder` is the loop as
it was forked before the seam existed.  Under Hypothesis fault plans - drop
probability in [0, 0.5], crash windows over the forward and dual slots, a
crashed coordinator, retry budgets of 1 to 4 - both must make the same
draws and the same transport calls, so every result field agrees, fault
digest included.  The builder also rejects bad input with a typed error.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistrCapSelector, InitialTreeBuilder, degree_bounded_subset
from repro.core.distr_cap import PhaseSeam
from repro.exceptions import ConfigurationError
from repro.geometry import uniform_random
from repro.links import Link
from repro.netsim import CrashSchedule, FaultPlan, NetDistrCapBuilder, RetryPolicy
from repro.netsim.faults import CrashWindow
from repro.sinr import SINRParameters

from .conftest import make_node
from .oracles.distr_cap import ReferenceNetDistrCapBuilder

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)


@lru_cache(maxsize=None)
def _deployment(n: int, seed: int):
    """An Init tree's candidate links and formation rounds."""
    nodes = uniform_random(n, np.random.default_rng(seed))
    built = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(seed + 1))
    links = built.tree.aggregation_links()
    return list(links), list(degree_bounded_subset(links, 6).subset), built.link_rounds


def _result_key(result) -> tuple:
    return (
        [link.endpoint_ids for link in result.selected],
        result.slots_used,
        result.phases,
        result.power_controllable,
        result.crashed_candidates,
        result.announce_retries,
        result.announce_timeouts,
        result.dropped_winners,
        result.degraded,
        sorted(result.fault_summary.items()),
        result.fault_digest,
    )


@st.composite
def runs(draw):
    """A deployment, a fault plan over it and the builder's knobs."""
    n = draw(st.sampled_from([24, 48]))
    links, sparse, rounds = _deployment(n, draw(st.integers(1, 3)))
    candidates = sparse if draw(st.booleans()) else links
    ids = sorted({node_id for link in candidates for node_id in link.endpoint_ids})
    # Windows start anywhere in the first slots, so some cover a phase's
    # forward slot, some its dual slot, some both, and some never end.
    windows = [
        CrashWindow(node_id, start, None if length is None else start + length)
        for node_id, start, length in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids),
                    st.integers(0, 30),
                    st.one_of(st.none(), st.integers(1, 3)),
                ),
                max_size=6,
            )
        )
    ]
    coordinator = draw(st.one_of(st.none(), st.sampled_from(ids)))
    if draw(st.booleans()):
        # The coordinator itself goes down for a stretch of the run.
        down = ids[0] if coordinator is None else coordinator
        start = draw(st.integers(0, 20))
        windows.append(CrashWindow(down, start, start + draw(st.integers(1, 12))))
    plan = FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        drop_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
        crashes=CrashSchedule(tuple(windows)),
    )
    kwargs = dict(
        plan=plan,
        policy=RetryPolicy(max_attempts=draw(st.integers(1, 4))),
        slot_offset=draw(st.integers(0, 50)),
        coordinator_id=coordinator,
    )
    link_rounds = rounds if draw(st.booleans()) else None
    return candidates, link_rounds, kwargs, draw(st.integers(0, 2**16))


class TestParityWithTheForkedLoop:
    @settings(max_examples=80, deadline=None)
    @given(run=runs())
    def test_every_field_matches(self, run):
        candidates, link_rounds, kwargs, seed = run
        got = NetDistrCapBuilder(PARAMS, **kwargs).select(
            candidates, np.random.default_rng(seed), link_rounds=link_rounds
        )
        expected = ReferenceNetDistrCapBuilder(PARAMS, **kwargs).select(
            candidates, np.random.default_rng(seed), link_rounds=link_rounds
        )
        assert _result_key(got) == _result_key(expected)

    def test_faults_reach_every_counter(self):
        """One fixed plan that sits candidates out, drops winners and
        retries announcements, so the parity above is not vacuous."""
        links, _, rounds = _deployment(48, 1)
        ids = sorted({node_id for link in links for node_id in link.endpoint_ids})
        plan = FaultPlan(
            seed=5,
            drop_prob=0.5,
            crashes=CrashSchedule(
                (CrashWindow(ids[0], 0, 9), CrashWindow(ids[5], 1), CrashWindow(ids[9], 2, 5))
            ),
        )
        kwargs = dict(plan=plan, policy=RetryPolicy(max_attempts=2))
        got = NetDistrCapBuilder(PARAMS, **kwargs).select(
            links, np.random.default_rng(4), link_rounds=rounds
        )
        expected = ReferenceNetDistrCapBuilder(PARAMS, **kwargs).select(
            links, np.random.default_rng(4), link_rounds=rounds
        )
        assert _result_key(got) == _result_key(expected)
        assert got.crashed_candidates and got.announce_retries and got.announce_timeouts
        assert got.dropped_winners and got.degraded

    @pytest.mark.parametrize("dual", [False, True], ids=["forward", "dual"])
    def test_a_crash_covering_one_phase_slot(self, dual):
        """An endpoint down for exactly one forward (or dual) slot in which
        its link would have taken part sits that slot out."""

        class Recorder(PhaseSeam):
            def __init__(self) -> None:
                self.calls: list[tuple[int, list[Link]]] = []

            def stand(self, links, slot):
                self.calls.append((slot, links))
                return links

        links, _, rounds = _deployment(48, 2)
        recorder = Recorder()
        DistrCapSelector(PARAMS).run_phases(
            links, np.random.default_rng(7), recorder, link_rounds=rounds
        )
        slot, standing = next(
            (slot, standing) for slot, standing in recorder.calls if slot % 2 == dual and standing
        )
        window = CrashWindow(standing[0].sender.id, slot, slot + 1)
        kwargs = dict(plan=FaultPlan(seed=1, crashes=CrashSchedule((window,))))
        got = NetDistrCapBuilder(PARAMS, **kwargs).select(
            links, np.random.default_rng(7), link_rounds=rounds
        )
        expected = ReferenceNetDistrCapBuilder(PARAMS, **kwargs).select(
            links, np.random.default_rng(7), link_rounds=rounds
        )
        assert _result_key(got) == _result_key(expected)
        assert got.crashed_candidates >= 1

    @pytest.mark.parametrize("seed", (11, 23))
    def test_perfect_transport(self, seed):
        links, _, rounds = _deployment(48, seed % 3 + 1)
        got = NetDistrCapBuilder(PARAMS).select(links, np.random.default_rng(seed), link_rounds=rounds)
        expected = ReferenceNetDistrCapBuilder(PARAMS).select(
            links, np.random.default_rng(seed), link_rounds=rounds
        )
        assert _result_key(got) == _result_key(expected)
        assert not got.degraded and got.fault_digest is None


def _pair(first, second) -> Link:
    return Link(make_node(*first), make_node(*second))


class TestInput:
    GOOD = [_pair((1, 0.0, 0.0), (2, 3.0, 0.0)), _pair((3, 10.0, 0.0), (4, 12.0, 0.0))]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (_pair((5, math.nan, 1.0), (6, 0.0, 5.0)), "non-finite"),
            (_pair((5, 1.0, 1.0), (6, math.inf, 0.0)), "non-finite"),
            (_pair((2, 3.0, 0.5), (7, 0.0, 9.0)), "two positions"),
        ],
        ids=["nan", "inf", "two-positions"],
    )
    def test_rejects_before_any_slot(self, bad, message):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        builder = NetDistrCapBuilder(PARAMS, plan=FaultPlan(seed=1, drop_prob=0.2))
        with pytest.raises(ConfigurationError, match=message):
            builder.select([*self.GOOD, bad], rng)
        assert rng.bit_generator.state == before
