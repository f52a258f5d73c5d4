"""Differential sweep of the dominance kernel, the stochastic Pareto
front and the W1 distance over degenerate histogram ensembles.

Each fast path is diffed against its pairwise oracle in
``tests/oracles.py`` on generated inputs that production rarely shows
but must survive: a single candidate, single-atom histograms and point
masses, identical copies (ties), shifted copies, one-bin histograms
beside many-bin ones, and interior zero-mass bins.  Integer weights
out of about a thousand put CDF and tail differences right at the
``1e-3`` tolerance, where a kernel that rounds differently from the
pairwise criterion would show.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.decision
import repro.decision.reduction
import repro.governance.uncertainty
from repro.decision import (
    dominance_prune,
    first_order_dominates,
    reduce_scenarios,
    second_order_dominates,
    stochastic_pareto_front,
    wasserstein_distance,
    wasserstein_matrix,
)
from repro.governance.uncertainty import Histogram
from repro.observability.metrics import use_registry

from .oracles import (
    _dominance_prune_pairwise,
    stochastic_pareto_reference,
    wasserstein_pairwise,
)

TOLERANCES = (0.0, 1e-9, 1e-3)

starts = st.one_of(st.integers(-5, 20).map(float),
                   st.floats(-5.0, 20.0, allow_nan=False))
widths = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                   st.floats(1e-3, 3.0))
weights = st.lists(st.one_of(st.just(0), st.integers(0, 1000)),
                   min_size=2, max_size=24)


@st.composite
def histograms(draw):
    """A point mass, a one-bin histogram, or a many-bin one whose
    zero weights leave zero-mass bins, interior ones included."""
    kind = draw(st.sampled_from(["point", "one-bin", "many-bin"]))
    start = draw(starts)
    if kind == "point":
        return Histogram.point_mass(start)
    width = draw(widths)
    if kind == "one-bin":
        return Histogram(start, width, [1.0])
    masses = draw(weights)
    if not any(masses):
        masses[draw(st.integers(0, len(masses) - 1))] = 1
    return Histogram(start, width, masses)


#: Shifts of a few tolerances, a few bins, or anything in between.
offsets = st.one_of(
    st.sampled_from([-0.02, -0.005, -0.002, 0.002, 0.005, 0.02]),
    st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def ensembles(draw, size=None, max_size=12):
    """Histograms where each member after the first is new, a copy of
    an earlier one (equal, or with its per-mille weights nudged by a
    few counts), or an earlier one shifted."""
    if size is None:
        size = draw(st.integers(1, max_size))
    members = [draw(histograms())]
    while len(members) < size:
        base = members[draw(st.integers(0, len(members) - 1))]
        how = draw(st.sampled_from(["new", "copy", "nudge", "shift"]))
        if how == "new":
            members.append(draw(histograms()))
        elif how == "copy":
            members.append(Histogram(base.start, base.width,
                                     base.probabilities))
        elif how == "nudge":
            nudges = draw(st.lists(st.integers(-2, 2), min_size=len(base),
                                   max_size=len(base)))
            masses = np.maximum(np.round(base.probabilities * 1000)
                                + nudges, 0.0)
            members.append(Histogram(base.start, base.width, masses)
                           if masses.any() else base)
        else:
            offset = draw(st.one_of(
                st.integers(-3, 3).map(lambda steps: steps * base.width),
                offsets))
            members.append(base.shift(offset))
    return members


@st.composite
def option_sets(draw):
    """1-3 objectives over 1-8 options, some options duplicated."""
    n_objectives = draw(st.integers(1, 3))
    size = draw(st.integers(1, 8))
    columns = [draw(ensembles(size=size)) for _ in range(n_objectives)]
    options = list(zip(*columns))
    for index in range(1, size):
        if draw(st.booleans()) and draw(st.booleans()):
            options[index] = options[draw(st.integers(0, index - 1))]
    return options


class TestDominancePruneSweep:
    @settings(deadline=None, max_examples=300)
    @given(candidates=ensembles(), order=st.sampled_from([1, 2]),
           tol=st.sampled_from(TOLERANCES))
    def test_matches_pairwise_oracle(self, candidates, order, tol):
        assert dominance_prune(candidates, order=order, tol=tol) == \
            _dominance_prune_pairwise(candidates, order=order, tol=tol)

    @settings(deadline=None, max_examples=150)
    @given(candidates=ensembles(), order=st.sampled_from([1, 2]),
           tol=st.sampled_from(TOLERANCES), k=st.integers(1, 12))
    def test_through_reduction(self, candidates, order, tol, k):
        with use_registry():
            reduction = reduce_scenarios(candidates, k)
        representatives = [int(i) for i in reduction.indices]
        pool = [candidates[i] for i in representatives]
        want = [representatives[p] for p in
                _dominance_prune_pairwise(pool, order=order, tol=tol)]
        assert dominance_prune(candidates, order=order, tol=tol,
                               reduction=reduction) == want

    def test_fsd_near_tie_rounds_as_the_pairwise_criterion(self):
        # CDF gaps of about one tolerance: the verdict must come from
        # the criterion's own comparisons, not a rounded difference.
        first = Histogram(0.0, 1.0, [310, 186])
        second = Histogram(0.0, 1.0, [312, 188])
        assert not first_order_dominates(first, second, tol=1e-3)
        assert not first_order_dominates(second, first, tol=1e-3)
        assert dominance_prune([first, second], tol=1e-3) == [0, 1]

    def test_ssd_slack_ignores_other_candidates(self):
        # A wide third candidate starting far below the pair must not
        # loosen the tolerance the pair is compared with.
        first = Histogram(5.0, 1.0, [0.5, 0.5])
        second = first.shift(0.5)
        wide = Histogram(-1000.0, 2000.0, [1e-6, 1.0 - 1e-6])
        assert second_order_dominates(first, second, tol=1e-3)
        assert dominance_prune([first, second, wide], order=2,
                               tol=1e-3) == [0]

    def test_typed_errors(self):
        single = [Histogram.point_mass(1.0)]
        with use_registry():
            reduction = reduce_scenarios(single * 3, 2)
        with pytest.raises(ValueError, match="reduction was built"):
            dominance_prune(single, reduction=reduction)
        with pytest.raises(TypeError):
            dominance_prune(single + [1.0])


class TestStochasticParetoSweep:
    @settings(deadline=None, max_examples=300)
    @given(options=option_sets(), tol=st.sampled_from(TOLERANCES))
    def test_matches_pairwise_oracle(self, options, tol):
        assert stochastic_pareto_front(options, tol=tol) == \
            stochastic_pareto_reference(options, tol=tol)

    def test_typed_errors(self):
        point = Histogram.point_mass(1.0)
        with pytest.raises(ValueError, match="at least one objective"):
            stochastic_pareto_front([()])
        with pytest.raises(ValueError, match="same number"):
            stochastic_pareto_front([(point,), (point, point)])
        with pytest.raises(TypeError):
            stochastic_pareto_front([(point,), (1.0,)])


class TestWassersteinSweep:
    def test_one_function(self):
        exact = repro.governance.uncertainty.wasserstein_distance
        assert repro.decision.wasserstein_distance is exact
        assert repro.decision.reduction.wasserstein_distance is exact

    @settings(deadline=None, max_examples=150)
    @given(members=ensembles(max_size=8))
    def test_matrix_matches_pairwise(self, members):
        np.testing.assert_allclose(wasserstein_matrix(members),
                                   wasserstein_pairwise(members),
                                   rtol=1e-12, atol=1e-10)

    @settings(deadline=None, max_examples=100)
    @given(histogram=histograms(), low=starts, high=starts)
    def test_degenerate_pairs(self, histogram, low, high):
        assert wasserstein_distance(histogram, histogram) == 0.0
        assert wasserstein_distance(Histogram.point_mass(low),
                                    Histogram.point_mass(high)) == \
            abs(high - low)

    def test_rejects_non_histograms(self):
        with pytest.raises(TypeError):
            wasserstein_distance(Histogram.point_mass(1.0), 1.0)
