"""The shared schedule replays against the four forked loops they replaced.

The lockstep ``simulate_convergecast`` / ``simulate_broadcast`` /
``pairwise_latency`` and the netsim ``run_convergecast`` /
``run_dissemination`` all replay a bi-tree's schedules through one loop per
direction (:mod:`repro.netsim.aggregation`).  Their predecessors live on as
:mod:`tests.oracles.aggregation`; every result field must match them under
Hypothesis fault plans - drops, crash windows on the root, an internal node
and a leaf, retry budgets, slot offsets, custom values, an underpowered tree
and Rayleigh fading, whose decode depends on the slot index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import pairwise_latency, simulate_broadcast, simulate_convergecast
from repro.analysis.latency import PairwiseOutcome
from repro.core import InitialTreeBuilder
from repro.dynamics.gain import RayleighFading
from repro.exceptions import ConfigurationError
from repro.geometry import uniform_random
from repro.netsim import (
    CrashSchedule,
    FaultPlan,
    FaultyTransport,
    RetryPolicy,
    run_convergecast,
    run_dissemination,
)
from repro.netsim.faults import CrashWindow
from repro.obs import telemetry
from repro.sinr import PowerAssignment, SINRParameters, UniformPower
from repro.state import network

from .oracles.aggregation import (
    run_convergecast_reference,
    run_dissemination_reference,
    simulate_broadcast_reference,
    simulate_convergecast_reference,
)

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)
COUNTERS = ("netsim.agg_retries", "netsim.degraded_aggregations")


@lru_cache(maxsize=None)
def _built(n: int, seed: int, tiled: bool = False):
    """An Init tree over ``n`` uniform nodes, built on a dense or a tiled store."""
    nodes = uniform_random(n, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        if tiled:
            patch.setattr(network, "DENSE_BUDGET_BYTES", 0)
        built = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(seed + 1))
    return built.tree, built.power


def _roles(tree) -> dict[str, list[int]]:
    children = tree.children_map()
    others = sorted(set(tree.nodes) - {tree.root_id})
    return {
        "root": [tree.root_id],
        "internal": [node_id for node_id in others if node_id in children],
        "leaf": [node_id for node_id in others if node_id not in children],
    }


@st.composite
def replays(draw):
    """A tree, the channel it is replayed on, a fault plan over it and the
    replay's knobs."""
    n = draw(st.sampled_from([1, 2, 12, 32, 64]))
    tree, power = _built(n, draw(st.integers(1, 3)), draw(st.booleans()))
    if draw(st.integers(0, 5)) == 0:
        power = UniformPower(1e-9)  # underpowered: nearly every hop fails physically
    params = PARAMS
    if draw(st.booleans()):
        params = SINRParameters(
            alpha=3.0,
            beta=1.5,
            noise=1.0,
            epsilon=0.1,
            gain_model=RayleighFading(seed=draw(st.integers(0, 99))),
        )
    roles = _roles(tree)
    windows = []
    for role in draw(st.lists(st.sampled_from(sorted(roles)), max_size=3)):
        if not roles[role]:
            continue
        start = draw(st.integers(0, 30))
        length = draw(st.one_of(st.none(), st.integers(1, 8)))  # None: crash-stop
        windows.append(
            CrashWindow(
                draw(st.sampled_from(roles[role])),
                start,
                None if length is None else start + length,
            )
        )
    plan = None
    if draw(st.integers(0, 7)):
        plan = FaultPlan(
            seed=draw(st.integers(0, 2**16)),
            drop_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
            crashes=CrashSchedule(tuple(windows)),
        )
    kwargs = dict(
        plan=plan,
        policy=RetryPolicy(max_attempts=draw(st.integers(1, 4))),
        quorum=draw(st.floats(min_value=0.05, max_value=1.0)),
        slot_offset=draw(st.integers(0, 50)),
    )
    ids = sorted(tree.nodes)
    values, combine = None, (lambda a, b: a + b)
    mode = draw(st.sampled_from(["default", "sum", "max"]))
    if mode == "sum":
        # Integral values: every combine order adds up to the same float.
        drawn = draw(st.lists(st.integers(-100, 100), max_size=len(ids)))
        values = {node_id: float(v) for node_id, v in zip(ids, drawn)}
    elif mode == "max":
        drawn = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=len(ids)))
        values = dict(zip(ids, drawn))
        combine = max
    pair = (draw(st.sampled_from(ids)), draw(st.sampled_from(ids)))
    return tree, power, params, kwargs, values, combine, pair


def _pairwise_reference(tree, power, params, source_id, destination_id) -> PairwiseOutcome:
    up = simulate_convergecast_reference(
        tree,
        power,
        params,
        values={node_id: (1.0 if node_id == source_id else 0.0) for node_id in tree.nodes},
        combine=max,
    )
    down = simulate_broadcast_reference(tree, power, params, payload=("relay", source_id))
    return PairwiseOutcome(slots=up.slots + down.slots, delivered=up.correct and down.complete)


def _counted(fn, *args, **kwargs):
    """``fn``'s result, the netsim counters and span names it recorded, and
    its faulty-transport admissions as ``(slot, src, dst)`` in call order.

    The fault digest sorts its events, so only the admission log pins the
    order in which hops are admitted.  It is flattened to one entry per
    hop, so one call per slot and one call per hop log alike.
    """
    admitted = []
    admit = FaultyTransport.admit

    def logged(transport, slot, src_ids, dst_ids):
        admitted.extend((slot, int(src), int(dst)) for src, dst in zip(src_ids, dst_ids))
        return admit(transport, slot, src_ids, dst_ids)

    with telemetry() as registry, pytest.MonkeyPatch.context() as patch:
        patch.setattr(FaultyTransport, "admit", logged)
        result = fn(*args, **kwargs)
    counters = {name: registry.counter_value(name) for name in COUNTERS}
    spans = sorted(span.name for span in registry.spans if span.name.startswith("netsim."))
    netsim_counters = [name for name, _, _ in registry.counters() if name.startswith("netsim.")]
    return result, counters, spans, netsim_counters, admitted


class TestParityWithTheForkedLoops:
    @settings(max_examples=150, deadline=None)
    @given(replay=replays())
    def test_lockstep_fields_match_and_record_no_netsim_telemetry(self, replay):
        tree, power, params, _, values, combine, (source, destination) = replay
        for got_call, expected in (
            (
                lambda: simulate_convergecast(tree, power, params, values=values, combine=combine),
                simulate_convergecast_reference(tree, power, params, values=values, combine=combine),
            ),
            (
                lambda: simulate_broadcast(tree, power, params, payload="hello"),
                simulate_broadcast_reference(tree, power, params, payload="hello"),
            ),
            (
                lambda: pairwise_latency(tree, power, params, source, destination),
                _pairwise_reference(tree, power, params, source, destination),
            ),
        ):
            got, _, spans, netsim_counters, admitted = _counted(got_call)
            assert got == expected
            assert spans == [] and netsim_counters == [] and admitted == []

    @settings(max_examples=150, deadline=None)
    @given(replay=replays())
    def test_netsim_fields_and_counters_match(self, replay):
        tree, power, params, kwargs, values, combine, _ = replay
        got = _counted(run_convergecast, tree, power, params, values=values, combine=combine, **kwargs)
        expected = _counted(
            run_convergecast_reference, tree, power, params, values=values, combine=combine, **kwargs
        )
        assert got == expected
        got = _counted(run_dissemination, tree, power, params, payload="hello", **kwargs)
        expected = _counted(run_dissemination_reference, tree, power, params, payload="hello", **kwargs)
        assert got == expected

    def test_faults_reach_every_field(self):
        """One fixed plan that crashes an internal node for good, drops hops
        and retries them under fading, so the parity above is not vacuous."""
        tree, power = _built(64, 2)
        internal = _roles(tree)["internal"]
        params = SINRParameters(
            alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1, gain_model=RayleighFading(seed=4)
        )
        plan = FaultPlan(
            seed=9,
            drop_prob=0.3,
            crashes=CrashSchedule((CrashWindow(internal[0], 0), CrashWindow(internal[1], 2, 6))),
        )
        kwargs = dict(plan=plan, policy=RetryPolicy(max_attempts=2), slot_offset=7, quorum=0.5)
        up = _counted(run_convergecast, tree, power, params, **kwargs)
        assert up == _counted(run_convergecast_reference, tree, power, params, **kwargs)
        result, counters, admitted = up[0], up[1], up[4]
        # Two hops admitted in one scheduled slot, so their order is pinned.
        assert any(a[0] == b[0] for a, b in zip(admitted, admitted[1:]))
        assert result.retries and result.missing_subtrees and result.degraded
        assert result.failed_links > len(result.missing_subtrees)  # physical failures too
        assert len(result.contributing) < len(tree.nodes)
        assert result.fault_summary and result.fault_digest is not None
        assert counters == {
            "netsim.agg_retries": result.retries,
            "netsim.degraded_aggregations": 1,
        }
        down = _counted(run_dissemination, tree, power, params, **kwargs)
        assert down == _counted(run_dissemination_reference, tree, power, params, **kwargs)
        assert down[0].retries and down[0].missing

    def test_underpowered_tree_fails_physically(self):
        tree, _ = _built(32, 1)
        power = UniformPower(1e-9)
        got = simulate_convergecast(tree, power, PARAMS)
        assert got == simulate_convergecast_reference(tree, power, PARAMS)
        assert got.failed_links == len(tree.parent) and not got.correct
        net = run_convergecast(tree, power, PARAMS)
        assert net == run_convergecast_reference(tree, power, PARAMS)
        assert net.contributing == frozenset({tree.root_id}) and net.retries == 0


class TestCorrectness:
    def test_large_sums_are_correct_despite_reassociation(self):
        """The tree-order and the id-order sum of N(0, 1e6) values differ in
        the last bits; that is not a failed aggregation."""
        nodes = uniform_random(256, np.random.default_rng(3))
        built = InitialTreeBuilder(PARAMS).build(nodes, np.random.default_rng(4))
        draws = np.random.default_rng(5).normal(0.0, 1e6, size=len(nodes))
        values = {node.id: float(v) for node, v in zip(nodes, draws)}
        up = simulate_convergecast(built.tree, built.power, PARAMS, values=values)
        assert up.failed_links == 0
        assert up.root_value != up.expected_value  # the reassociation is real
        assert up.correct
        net = run_convergecast(built.tree, built.power, PARAMS, values=values)
        assert net.failed_links == 0 and not net.degraded
        assert net.correct

    def test_lockstep_rejects_a_foreign_id(self):
        tree, power = _built(12, 1)
        with pytest.raises(ConfigurationError, match="not a tree node"):
            simulate_convergecast(tree, power, PARAMS, values={max(tree.nodes) + 1: 5.0})

    def test_netsim_rejects_a_foreign_id(self):
        tree, power = _built(12, 1)
        with pytest.raises(ConfigurationError, match="not a tree node"):
            run_convergecast(tree, power, PARAMS, values={-1: 5.0})

    @pytest.mark.parametrize(
        "entry",
        [
            (simulate_convergecast, simulate_convergecast_reference),
            (simulate_broadcast, simulate_broadcast_reference),
            (run_convergecast, run_convergecast_reference),
            (run_dissemination, run_dissemination_reference),
            (
                lambda tree, power, params: pairwise_latency(tree, power, params, 0, 1),
                lambda tree, power, params: _pairwise_reference(tree, power, params, 0, 1),
            ),
        ],
        ids=[
            "simulate_convergecast",
            "simulate_broadcast",
            "run_convergecast",
            "run_dissemination",
            "pairwise_latency",
        ],
    )
    def test_zero_power_raises(self, entry):
        """The channel rejects a non-positive power, as a ``Transmission`` did."""
        tree, _ = _built(12, 1)
        for replay in entry:
            with pytest.raises(ValueError, match="positive and finite"):
                replay(tree, _ZeroPower(), PARAMS)


class _ZeroPower(PowerAssignment):
    def power(self, link) -> float:
        return 0.0
