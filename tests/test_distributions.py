"""Tests for repro.governance.uncertainty.distributions."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import trapezoid
from repro.governance.uncertainty import GaussianMixture, Histogram


class TestHistogramConstruction:
    def test_from_samples_moments(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 2.0, 5000)
        histogram = Histogram.from_samples(samples, n_bins=50)
        assert histogram.mean() == pytest.approx(10.0, abs=0.15)
        assert histogram.std() == pytest.approx(2.0, abs=0.15)

    def test_from_samples_bounds(self):
        histogram = Histogram.from_samples([1.0, 2.0, 3.0], n_bins=4,
                                           bounds=(0.0, 4.0))
        assert histogram.min() >= 0.0
        assert histogram.max() <= 4.0

    def test_from_samples_identical_values(self):
        histogram = Histogram.from_samples([5.0, 5.0, 5.0])
        assert histogram.mean() == pytest.approx(5.0, abs=1e-6)
        assert histogram.std() == pytest.approx(0.0, abs=1e-6)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram.from_samples([1.0, 2.0], bounds=(3.0, 1.0))

    def test_out_of_bounds_samples(self):
        with pytest.raises(ValueError):
            Histogram.from_samples([10.0], bounds=(0.0, 1.0))

    def test_point_mass(self):
        point = Histogram.point_mass(3.0)
        assert point.mean() == pytest.approx(3.0)
        assert point.std() == pytest.approx(0.0, abs=1e-6)

    def test_negative_probabilities_rejected(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, [-0.5, 1.5])

    def test_probabilities_normalized(self):
        histogram = Histogram(0.0, 1.0, [2.0, 2.0])
        assert histogram.probabilities.sum() == pytest.approx(1.0)


def same_histogram(first, second):
    """Same type, start, width and probability bits."""
    return (type(first) is type(second)
            and first.start.hex() == second.start.hex()
            and first.width.hex() == second.width.hex()
            and first.probabilities.dtype == second.probabilities.dtype
            and first.probabilities.tobytes()
            == second.probabilities.tobytes())


class TestHistogramPickling:
    """A histogram pickles as ``(start, width, probability bytes)`` and
    restores bit for bit, without renormalizing."""

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 40),
           protocol=st.integers(2, pickle.HIGHEST_PROTOCOL))
    def test_round_trip_keeps_every_bit(self, seed, n_bins, protocol):
        rng = np.random.default_rng(seed)
        weights = rng.random(n_bins) * (rng.random(n_bins) > 0.3)
        weights[rng.integers(n_bins)] += 1e-300  # a positive sum
        histogram = Histogram(rng.normal(0, 1e3), rng.uniform(1e-6, 9),
                              weights)
        restored = pickle.loads(pickle.dumps(histogram, protocol))
        assert same_histogram(restored, histogram)
        assert restored.probabilities.flags.writeable

    def test_restore_does_not_renormalize(self):
        histogram = next(
            candidate for candidate in (
                Histogram(0.0, 1.0,
                          np.random.default_rng(seed).random(7))
                for seed in range(100))
            if Histogram(0.0, 1.0, candidate.probabilities)
            .probabilities.tobytes()
            != candidate.probabilities.tobytes())
        restored = pickle.loads(pickle.dumps(histogram))
        assert same_histogram(restored, histogram)

    def test_read_only_probabilities_restore_writeable(self):
        weights = np.array([0.25, 0.5, 0.25])
        weights.flags.writeable = False
        histogram = Histogram(2.0, 0.5, weights)
        histogram.probabilities.flags.writeable = False
        restored = pickle.loads(pickle.dumps(histogram))
        assert same_histogram(restored, histogram)
        assert restored.probabilities.flags.writeable
        restored.probabilities[0] = 0.0
        assert histogram.probabilities[0] == 0.25

    def test_copies_and_containers(self):
        histogram = Histogram.from_samples(
            np.random.default_rng(4).normal(5.0, 1.0, 200), n_bins=12)
        payload = {"edge": [histogram, histogram]}
        restored = pickle.loads(pickle.dumps(payload))
        assert restored["edge"][0] is restored["edge"][1]
        assert same_histogram(restored["edge"][0], histogram)
        assert same_histogram(copy.deepcopy(histogram), histogram)
        assert restored["edge"][0].mean() == histogram.mean()


class TestHistogramQueries:
    @pytest.fixture
    def uniform(self):
        return Histogram(0.0, 1.0, np.ones(10) / 10)

    def test_cdf_monotone(self, uniform):
        grid = np.linspace(-1, 10, 50)
        cdf = uniform.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0)

    def test_cdf_scalar(self, uniform):
        assert uniform.cdf(4.5) == pytest.approx(0.5)

    def test_sf_complement(self, uniform):
        assert uniform.sf(4.5) == pytest.approx(1 - uniform.cdf(4.5))

    def test_quantile_inverts_cdf(self, uniform):
        for q in (0.1, 0.5, 0.9):
            value = uniform.quantile(q)
            assert uniform.cdf(value) >= q - 1e-9

    def test_quantile_bounds(self, uniform):
        assert uniform.quantile(0.0) == uniform.support[0]
        assert uniform.quantile(1.0) == uniform.support[-1]

    def test_quantile_invalid(self, uniform):
        with pytest.raises(ValueError):
            uniform.quantile(1.5)

    def test_expectation_of_identity_is_mean(self, uniform):
        assert uniform.expectation(lambda x: x) == pytest.approx(
            uniform.mean())

    def test_sampling_matches_distribution(self, uniform):
        samples = uniform.sample(20000, rng=np.random.default_rng(1))
        assert samples.mean() == pytest.approx(uniform.mean(), abs=0.1)

    def test_min_max_ignore_zero_mass(self):
        histogram = Histogram(0.0, 1.0, [0.0, 1.0, 0.0])
        assert histogram.min() == 1.0
        assert histogram.max() == 1.0


class TestHistogramAlgebra:
    def test_convolution_moments_add(self):
        rng = np.random.default_rng(2)
        a = Histogram.from_samples(rng.normal(3, 1, 4000), n_bins=40)
        b = Histogram.from_samples(rng.normal(5, 2, 4000), n_bins=40)
        total = a.convolve(b)
        assert total.mean() == pytest.approx(a.mean() + b.mean(), rel=0.02)
        assert total.variance() == pytest.approx(
            a.variance() + b.variance(), rel=0.1)

    def test_convolve_point_mass_shifts(self):
        a = Histogram(0.0, 1.0, [0.5, 0.5])
        shifted = a.convolve(Histogram.point_mass(10.0))
        assert shifted.mean() == pytest.approx(a.mean() + 10.0, abs=0.01)

    def test_convolve_type_check(self):
        with pytest.raises(TypeError):
            Histogram(0.0, 1.0, [1.0]).convolve("no")

    def test_shift(self):
        a = Histogram(0.0, 1.0, [0.25, 0.75])
        assert a.shift(5.0).mean() == pytest.approx(a.mean() + 5.0)

    def test_rebin_preserves_mass_and_mean(self):
        rng = np.random.default_rng(3)
        a = Histogram.from_samples(rng.gamma(3, 2, 3000), n_bins=60)
        coarse = a.rebinned(a.width * 3)
        assert coarse.probabilities.sum() == pytest.approx(1.0)
        assert coarse.mean() == pytest.approx(a.mean(), abs=2 * a.width)

    def test_mixture_mean(self):
        a = Histogram.point_mass(0.0, width=0.5)
        b = Histogram.point_mass(10.0, width=0.5)
        mixed = Histogram.mixture([a, b], [0.25, 0.75])
        assert mixed.mean() == pytest.approx(7.5, abs=0.3)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            Histogram.mixture([Histogram.point_mass(0.0)], [0.5, 0.5])
        with pytest.raises(ValueError):
            Histogram.mixture([], [])

    def test_truncated_support(self):
        uniform = Histogram(0.0, 1.0, np.ones(10) / 10)
        clipped = uniform.truncated(low=3.0, high=6.0)
        assert clipped.min() >= 3.0
        assert clipped.max() <= 6.0
        assert clipped.probabilities.sum() == pytest.approx(1.0)

    def test_truncated_empty(self):
        uniform = Histogram(0.0, 1.0, np.ones(10) / 10)
        with pytest.raises(ValueError):
            uniform.truncated(low=100.0)


class TestGaussianMixture:
    def test_fit_recovers_two_modes(self):
        rng = np.random.default_rng(4)
        samples = np.concatenate([
            rng.normal(0.0, 1.0, 1000), rng.normal(10.0, 1.0, 1000)
        ])
        mixture = GaussianMixture.fit(samples, 2, rng=rng)
        means = np.sort(mixture.means)
        assert means[0] == pytest.approx(0.0, abs=0.5)
        assert means[1] == pytest.approx(10.0, abs=0.5)
        assert mixture.weights == pytest.approx([0.5, 0.5], abs=0.08)

    def test_single_component_matches_moments(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(3.0, 2.0, 2000)
        mixture = GaussianMixture.fit(samples, 1, rng=rng)
        assert mixture.mean() == pytest.approx(3.0, abs=0.2)
        assert mixture.std() == pytest.approx(2.0, abs=0.2)

    def test_cdf_and_quantile_consistent(self):
        mixture = GaussianMixture([0.0, 4.0], [1.0, 1.0], [0.5, 0.5])
        median = mixture.quantile(0.5)
        assert mixture.cdf(median) == pytest.approx(0.5, abs=1e-6)
        assert median == pytest.approx(2.0, abs=1e-4)

    def test_pdf_integrates_to_one(self):
        mixture = GaussianMixture([0.0, 3.0], [0.5, 1.5], [0.3, 0.7])
        grid = np.linspace(-10, 15, 4000)
        integral = trapezoid(mixture.pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-4)

    def test_sampling_moments(self):
        mixture = GaussianMixture([0.0, 8.0], [1.0, 2.0], [0.6, 0.4])
        samples = mixture.sample(30000, rng=np.random.default_rng(6))
        assert samples.mean() == pytest.approx(mixture.mean(), abs=0.1)
        assert samples.std() == pytest.approx(mixture.std(), abs=0.1)

    def test_to_histogram_preserves_moments(self):
        mixture = GaussianMixture([2.0], [1.0], [1.0])
        histogram = mixture.to_histogram(n_bins=120)
        assert histogram.mean() == pytest.approx(2.0, abs=0.05)
        assert histogram.std() == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture([0.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            GaussianMixture([0.0, 1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            GaussianMixture.fit([1.0], 2)


@settings(deadline=None, max_examples=25)
@given(
    mean_a=st.floats(-20, 20), mean_b=st.floats(-20, 20),
    seed=st.integers(0, 100),
)
def test_convolution_mean_additivity_property(mean_a, mean_b, seed):
    """E[A + B] = E[A] + E[B] holds for histogram convolution."""
    rng = np.random.default_rng(seed)
    a = Histogram.from_samples(rng.normal(mean_a, 1.0, 400), n_bins=25)
    b = Histogram.from_samples(rng.normal(mean_b, 2.0, 400), n_bins=25)
    total = a.convolve(b)
    tolerance = 2 * max(a.width, b.width)
    assert abs(total.mean() - (a.mean() + b.mean())) < tolerance


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 1000))
def test_cdf_is_valid_distribution_property(seed):
    """Any sampled histogram has a monotone CDF ending at 1."""
    rng = np.random.default_rng(seed)
    histogram = Histogram.from_samples(rng.exponential(2.0, 200), n_bins=15)
    grid = np.linspace(histogram.min() - 1, histogram.max() + 1, 64)
    cdf = histogram.cdf(grid)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0)
