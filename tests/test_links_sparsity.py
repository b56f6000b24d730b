"""Tests for repro.links.sparsity (Definition 8)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.links import Link, LinkSet, is_sparse, sparsity, sparsity_profile

from .conftest import make_node

ROOT = Path(__file__).resolve().parent.parent


def _star_links(count: int, length: float) -> LinkSet:
    """`count` links of the given length all sharing one endpoint."""
    center = make_node(0, 0.0, 0.0)
    links = []
    for i in range(count):
        # Spread the far endpoints on a circle of the given radius.
        import math

        angle = 2 * math.pi * i / max(count, 1)
        links.append(
            Link(make_node(i + 1, length * math.cos(angle), length * math.sin(angle)), center)
        )
    return LinkSet(links)


class TestSparsity:
    def test_empty_set_is_zero_sparse(self):
        report = sparsity(LinkSet())
        assert report.psi == 0
        assert report.witness_center is None

    def test_single_link(self):
        link = Link(make_node(0, 0, 0), make_node(1, 5, 0))
        assert sparsity([link]).psi == 1

    def test_star_of_long_links_is_dense(self):
        star = _star_links(6, length=100.0)
        report = sparsity(star)
        # All 6 long links meet at the center, so a tiny ball there counts 6.
        assert report.psi == 6

    def test_spread_out_links_are_sparse(self, far_apart_links):
        assert sparsity(far_apart_links).psi <= 1

    def test_short_links_do_not_count_against_large_balls(self):
        # Links of length 1 with endpoints in a ball of radius 1 are not
        # counted because the definition only counts links of length >= 8r.
        cluster = LinkSet(
            Link(make_node(2 * i, i * 0.0, float(i)), make_node(2 * i + 1, 1.0, float(i)))
            for i in range(4)
        )
        profile = sparsity_profile(cluster, radii=[1.0])
        assert profile[1.0] == 0

    def test_is_sparse_threshold(self):
        star = _star_links(5, length=50.0)
        assert is_sparse(star, 5)
        assert not is_sparse(star, 4)

    def test_length_factor_validation(self):
        link = Link(make_node(0, 0, 0), make_node(1, 5, 0))
        with pytest.raises(ValueError):
            sparsity([link], length_factor=0.0)

    def test_sparsity_profile_monotone_radii(self):
        star = _star_links(4, length=80.0)
        profile = sparsity_profile(star, radii=[1.0, 5.0, 10.0])
        assert profile[1.0] >= profile[10.0] or profile[1.0] == 4

    def test_profile_rejects_nonpositive_radius(self):
        star = _star_links(3, length=10.0)
        with pytest.raises(ValueError):
            sparsity_profile(star, radii=[0.0])

    def test_mst_like_chain_is_constant_sparse(self, chain_links):
        # A unit chain is the canonical O(1)-sparse structure.
        assert sparsity(chain_links).psi <= 2


class TestCandidateRadii:
    def test_one_radius_per_distinct_length(self):
        # Three lengths, each shared by several links: 3 radii x 2m centers.
        lengths = [3.0, 5.0, 3.0, 8.0, 5.0, 3.0]
        links = [
            Link(make_node(2 * i, 0.0, 20.0 * i), make_node(2 * i + 1, length, 20.0 * i))
            for i, length in enumerate(lengths)
        ]
        report = sparsity(links)
        assert report.balls_examined == 3 * 2 * len(links)

    def test_sparsity_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma on first call; a fresh interpreter shows
        # whether a sparsity measurement pulled it in.
        script = textwrap.dedent(
            """
            import sys
            from repro.geometry import Node, Point
            from repro.links import Link, sparsity

            links = [
                Link(Node(2 * i, Point(0.0, 9.0 * i)), Node(2 * i + 1, Point(1.0 + i % 3, 9.0 * i)))
                for i in range(12)
            ]
            assert sparsity(links).psi >= 1
            print("numpy.ma" in sys.modules)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]
