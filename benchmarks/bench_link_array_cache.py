"""Micro-benchmarks of the greedy capacity/scheduling loops on whole-set link arrays.

Times the capacity/scheduling hot path at 500-1000 links, whose affectance
matrices come from ``repro.sinr.PositionedLinks``, and pins down the
headline claim: the incremental-accumulator greedy loop is at least 3x faster
than the seed's full-matrix-recompute loop at 500+ links (in practice ~10x,
growing with instance size), while producing the identical schedule.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.capacity import first_fit_schedule, select_feasible_subset
from repro.core.schedule import Schedule
from repro.geometry import uniform_random
from repro.links import Link
from repro.sinr import MeanPower, SINRParameters, affectance_matrix

PARAMS = SINRParameters(alpha=3.0, beta=1.0, noise=0.5, epsilon=0.1)


def _instance(seed: int, count: int, side: float = 200.0):
    rng = np.random.default_rng(seed)
    nodes = uniform_random(2 * count, rng, side=side)
    links = [Link(nodes[2 * i], nodes[2 * i + 1]) for i in range(count)]
    power = MeanPower.for_max_length(PARAMS, max(l.length for l in links))
    return links, power


def _recompute_first_fit(links, power, params) -> Schedule:
    """The seed greedy loop: rebuilds the slot's affectance matrix per test."""
    link_list = sorted(links, key=lambda link: (-link.length, link.endpoint_ids))
    schedule = Schedule()
    slot_members: list[list[Link]] = []
    slot_nodes: list[set[int]] = []
    for link in link_list:
        placed = False
        for slot_index, members in enumerate(slot_members):
            if (
                link.sender.id in slot_nodes[slot_index]
                or link.receiver.id in slot_nodes[slot_index]
            ):
                continue
            candidate = members + [link]
            matrix = affectance_matrix(candidate, power, params)
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


@pytest.fixture(scope="module")
def instance_500():
    return _instance(7, 500)


@pytest.fixture(scope="module")
def instance_1000():
    return _instance(8, 1000, side=300.0)


def bench_capacity_greedy_incremental_500(benchmark, instance_500):
    links, power = instance_500
    benchmark.pedantic(
        first_fit_schedule, args=(links, power, PARAMS), rounds=3, iterations=1
    )


def bench_capacity_greedy_recompute_baseline_500(benchmark, instance_500):
    links, power = instance_500
    benchmark.pedantic(
        _recompute_first_fit, args=(links, power, PARAMS), rounds=1, iterations=1
    )


def bench_capacity_greedy_speedup_at_500_links(benchmark, instance_500):
    """Acceptance check: >= 3x over the full-matrix-recompute baseline."""
    links, power = instance_500

    def compare() -> float:
        start = time.perf_counter()
        incremental = first_fit_schedule(links, power, PARAMS)
        mid = time.perf_counter()
        baseline = _recompute_first_fit(links, power, PARAMS)
        end = time.perf_counter()
        assert dict(incremental.items()) == dict(baseline.items())
        return (end - mid) / (mid - start)

    speedup = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\nincremental vs full-recompute speedup at 500 links: {speedup:.1f}x")
    assert speedup >= 3.0


def bench_capacity_greedy_incremental_1000(benchmark, instance_1000):
    links, power = instance_1000
    benchmark.pedantic(
        first_fit_schedule, args=(links, power, PARAMS), rounds=1, iterations=1
    )


def bench_select_feasible_subset_cached_1000(benchmark, instance_1000):
    links, _ = instance_1000
    result = benchmark.pedantic(
        select_feasible_subset, args=(links, PARAMS), rounds=3, iterations=1
    )
    assert len(result.selected) > 0

