"""The slot engines trace node ids, not positions, on any id layout.

``Simulator`` and ``NetSimulator`` hand their trace node positions with the
array of their nodes' ids, and the trace maps them when it flattens.  With
ids ``0..n-1`` in order the map is the identity and a missing mapping would
go unseen, so here the ids are offset and shuffled.  Each engine's trace must
equal the per-agent oracle's, which records ids directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InitialTreeBuilder
from repro.geometry import Node, uniform_random
from repro.netsim import FaultPlan, LatencyModel, NetInitBuilder
from repro.sinr import SINRParameters

from .oracles import build_init_reference
from .oracles.init import ReferenceNetInitBuilder
from .test_init_engine import trace_contents

PARAMS = SINRParameters(alpha=3.0, beta=1.5, noise=1.0, epsilon=0.1)


def _nodes(n: int, seed: int) -> list[Node]:
    placed = uniform_random(n, np.random.default_rng(seed))
    ids = 1000 + 7 * np.random.default_rng(seed + 1).permutation(n)
    return [Node(id=int(i), position=node.position) for i, node in zip(ids, placed)]


def _assert_traced_ids(trace, nodes) -> None:
    ids = {node.id for node in nodes}
    records = trace.records
    assert any(record.transmitters for record in records)
    for record in records:
        assert set(record.transmitters) <= ids
        assert set(record.receptions) | set(record.receptions.values()) <= ids


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_trace_is_in_ids(seed):
    nodes = _nodes(18, seed)
    builder = InitialTreeBuilder(PARAMS)
    got = builder.build(nodes, np.random.default_rng(seed))
    expected = build_init_reference(builder, nodes, np.random.default_rng(seed))
    _assert_traced_ids(got.trace, nodes)
    assert got.trace.records == expected.trace.records
    assert trace_contents(got.trace) == trace_contents(expected.trace)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_netsim_trace_is_in_ids(seed):
    nodes = _nodes(16, seed)
    plan = FaultPlan(
        seed=seed,
        drop_prob=0.15,
        latency=LatencyModel(delay_prob=0.2, mean_slots=1.5, max_slots=3),
    )
    got = NetInitBuilder(PARAMS, plan=plan, delivery="reliable").build(
        nodes, np.random.default_rng(seed)
    )
    expected = ReferenceNetInitBuilder(PARAMS, plan=plan, delivery="reliable").build(
        nodes, np.random.default_rng(seed)
    )
    _assert_traced_ids(got.trace, nodes)
    assert got.trace.records == expected.trace.records
    assert trace_contents(got.trace) == trace_contents(expected.trace)
