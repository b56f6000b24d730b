"""Mean-power sampling on index arrays against its object-path slot pair.

:meth:`MeanPowerSelector.select` decodes its data + acknowledgment slot pair
through :meth:`~repro.sinr.CachedChannel.decoded_senders` on a tiled store
over the candidates' endpoints.  :mod:`tests.oracles.mean_power` keeps the
pair as it ran on :class:`~repro.sinr.Transmission` objects and
:meth:`~repro.sinr.Channel.resolve`; every result field must match it under
every gain model, for any number of candidate links, including links whose
receiver transmits in the same slot (half-duplex) and powers the channel
must reject.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InitialTreeBuilder, MeanPowerSelector
from repro.dynamics import ComposedGain, DeterministicPathLoss, LogNormalShadowing, RayleighFading
from repro.geometry import uniform_random
from repro.links import Link, LinkSet
from repro.sinr import MeanPower, PowerAssignment, SINRParameters

from .conftest import make_node
from .oracles import ReferenceMeanPowerSelector

GAIN_MODELS = (
    None,
    DeterministicPathLoss(),
    LogNormalShadowing(sigma_db=6.0, seed=3),
    RayleighFading(seed=5),
    ComposedGain((LogNormalShadowing(sigma_db=4.0, seed=1), RayleighFading(seed=2))),
)


class _FixedPower(PowerAssignment):
    """``level`` for the links in ``links``, mean power for every other link.

    Unlike the library's assignments it accepts any float, so the channel's
    own power check is what rejects a bad level.
    """

    def __init__(self, base: PowerAssignment, links: LinkSet, level: float) -> None:
        self.base, self.links, self.level = base, links, level

    def power(self, link: Link) -> float:
        return self.level if link in self.links else self.base.power(link)


def _select(selector_type, params, links, seed, **kwargs):
    probability = kwargs.pop("probability", None)
    selector = selector_type(params, probability=probability)
    return selector.select(links, np.random.default_rng(seed), **kwargs)


def assert_same_selection(got, expected) -> None:
    """Every field equal; the selected links in the same order."""
    assert list(got.selected) == list(expected.selected)
    assert (got.slots_used, got.attempts, got.probability) == (
        expected.slots_used,
        expected.attempts,
        expected.probability,
    )
    assert type(got.power) is type(expected.power)
    assert vars(got.power) == vars(expected.power)


@st.composite
def selections(draw):
    """Candidate links over a random deployment, a gain model and the knobs."""
    n = draw(st.integers(2, 24))
    nodes = uniform_random(n, np.random.default_rng(draw(st.integers(0, 2**16))))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=16,
        )
    )
    links = LinkSet(Link(nodes[a], nodes[b]) for a, b in pairs)
    params = SINRParameters(gain_model=draw(st.sampled_from(GAIN_MODELS)))
    kwargs = dict(
        probability=draw(st.sampled_from([None, 0.3, 0.7, 1.0])),
        max_attempts=draw(st.integers(1, 5)),
    )
    if links and draw(st.booleans()):
        longest = max(link.length for link in links)
        kwargs["power"] = MeanPower.for_max_length(params, longest * draw(st.floats(0.3, 3.0)))
    return params, links, draw(st.integers(0, 2**16)), kwargs


class TestSelectMatchesObjectPath:
    @settings(max_examples=200, deadline=None)
    @given(case=selections())
    def test_every_field_matches(self, case):
        params, links, seed, kwargs = case
        got = _select(MeanPowerSelector, params, links, seed, **dict(kwargs))
        expected = _select(ReferenceMeanPowerSelector, params, links, seed, **dict(kwargs))
        assert_same_selection(got, expected)

    @pytest.mark.parametrize("model", GAIN_MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("count", [1, 2, 5, 40])
    def test_link_counts(self, model, count):
        """The links of an Init tree over ``count + 1`` nodes, as candidates."""
        params = SINRParameters(gain_model=model)
        nodes = uniform_random(count + 1, np.random.default_rng(count))
        tree = InitialTreeBuilder(SINRParameters()).build(nodes, np.random.default_rng(0)).tree
        links = tree.aggregation_links()
        assert len(links) == count
        for seed in range(4):
            got = _select(MeanPowerSelector, params, links, seed)
            expected = _select(ReferenceMeanPowerSelector, params, links, seed)
            assert_same_selection(got, expected)
            if model is None:
                assert got.selected  # the deterministic channel always decodes one

    def test_transmitting_receiver_hears_nothing(self):
        """a -> b and b -> c both sampled: b transmits, so a -> b fails."""
        params = SINRParameters()
        a, b, c = make_node(0, 0.0, 0.0), make_node(1, 1.0, 0.0), make_node(2, 30.0, 0.0)
        links = LinkSet([Link(a, b), Link(b, c)])
        got = _select(MeanPowerSelector, params, links, 0, probability=1.0)
        expected = _select(ReferenceMeanPowerSelector, params, links, 0, probability=1.0)
        assert_same_selection(got, expected)
        assert list(got.selected) == [Link(b, c)]

    @pytest.mark.parametrize("level", [math.nan, 0.0])
    def test_bad_power_raises(self, level):
        params = SINRParameters()
        nodes = uniform_random(6, np.random.default_rng(1))
        links = LinkSet(Link(nodes[i], nodes[i + 1]) for i in range(0, 6, 2))
        base = MeanPower.for_max_length(params, max(link.length for link in links))
        power = _FixedPower(base, LinkSet([links[1]]), level)
        for selector in (MeanPowerSelector, ReferenceMeanPowerSelector):
            with pytest.raises(ValueError, match="positive and finite"):
                _select(selector, params, links, 0, probability=1.0, power=power)
