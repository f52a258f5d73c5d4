"""Cost distributions for uncertainty quantification (paper §II-B).

The paper prescribes histograms and Gaussian mixture models because both
"approximate distributions without assumptions on the type of
distribution".  These classes are the uncertainty currency of the whole
library: the governance layer *produces* them (travel-time
distributions per edge or path), and the decision layer *consumes* them
(expected utility, stochastic dominance, on-time-arrival probability).

Both distribution families support the operations the downstream layers
need:

* moments, CDF, quantiles, sampling,
* ``convolve`` — the distribution of a *sum* of independent costs
  (how edge-centric models compose a path distribution),
* stochastic-dominance comparisons (module
  :mod:`repro.decision.stochastic` builds on the CDFs exposed here).
"""

from __future__ import annotations

import math

import numpy as np

from ..._validation import (
    as_float_array,
    check_positive,
    check_probability_vector,
    ensure_rng,
)

__all__ = ["Histogram", "GaussianMixture"]


class Histogram:
    """A discrete distribution over equi-width bins.

    The representation is a regular grid: ``support[i]`` is the center of
    bin ``i`` and all bins share one ``width``.  Regularity is what makes
    convolution exact and cheap (probability vectors convolve directly),
    which the stochastic-routing experiments lean on heavily.

    Parameters
    ----------
    start:
        Center of the first bin.
    width:
        Common bin width (> 0).
    probabilities:
        Non-negative weights, normalized to sum to one.
    """

    def __init__(self, start, width, probabilities):
        self.width = float(check_positive(width, "width"))
        self.start = float(start)
        self.probabilities = check_probability_vector(probabilities,
                                                      "probabilities")

    def __reduce__(self):
        """Pickle as ``(start, width, probability bytes)``: one buffer,
        restored bit for bit and without re-validation."""
        return _restore_histogram, (type(self), self.start, self.width,
                                    self.probabilities.tobytes())

    @classmethod
    def _trusted(cls, start, width, probabilities):
        """A histogram of fields that are already valid: float ``start``,
        positive float ``width`` and a normalised float64 vector, stored
        as given, without checks or copies."""
        histogram = cls.__new__(cls)
        histogram.start = start
        histogram.width = width
        histogram.probabilities = probabilities
        return histogram

    # -- construction ------------------------------------------------------

    @classmethod
    def from_samples(cls, samples, n_bins=30, *, bounds=None):
        """Estimate a histogram from empirical samples.

        Parameters
        ----------
        samples:
            1-D array of observations.
        n_bins:
            Number of bins.
        bounds:
            Optional ``(low, high)`` range; defaults to the sample range
            (slightly padded so no sample falls outside).
        """
        data = as_float_array(samples, "samples", ndim=1)
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins}")
        if bounds is None:
            low, high = float(data.min()), float(data.max())
        else:
            low, high = map(float, bounds)
            if high <= low:
                raise ValueError("bounds must satisfy low < high")
        if high == low:
            high = low + 1e-9
        span = high - low
        low -= 1e-9 * span
        high += 1e-9 * span
        counts, edges = np.histogram(data, bins=n_bins, range=(low, high))
        width = edges[1] - edges[0]
        total = counts.sum()
        if total == 0:
            raise ValueError("no samples fall inside the given bounds")
        return cls(edges[0] + width / 2, width, counts / total)

    @classmethod
    def point_mass(cls, value, width=1e-6):
        """A degenerate distribution concentrated at ``value``."""
        return cls(value, width, [1.0])

    # -- protocol -----------------------------------------------------------

    def __len__(self):
        return len(self.probabilities)

    def __repr__(self):
        return (
            f"Histogram(bins={len(self)}, mean={self.mean():.3f}, "
            f"std={self.std():.3f})"
        )

    @property
    def support(self):
        """Bin centers, shape ``(n_bins,)``."""
        return self.start + self.width * np.arange(len(self.probabilities))

    # -- moments ------------------------------------------------------------

    def mean(self):
        return float(self.support @ self.probabilities)

    def variance(self):
        centered = self.support - self.mean()
        return float((centered ** 2) @ self.probabilities)

    def std(self):
        return math.sqrt(max(self.variance(), 0.0))

    def min(self):
        """Smallest support value with positive probability."""
        index = int(np.flatnonzero(self.probabilities > 0)[0])
        return float(self.support[index])

    def max(self):
        index = int(np.flatnonzero(self.probabilities > 0)[-1])
        return float(self.support[index])

    def atoms(self):
        """``(values, probabilities)`` of the positive-mass bins only.

        The CDF is a step function jumping exactly at these values, so
        exact step-function computations (Wasserstein integrals,
        dominance grids) need nothing else — zero-mass padding bins
        carry no information.
        """
        mask = self.probabilities > 0
        return self.support[mask], self.probabilities[mask]

    def trimmed(self):
        """This distribution with leading/trailing zero-mass bins
        dropped (interior zeros stay: the grid must remain regular)."""
        positive = np.flatnonzero(self.probabilities > 0)
        first, last = int(positive[0]), int(positive[-1])
        if first == 0 and last == len(self.probabilities) - 1:
            return self
        return Histogram(self.start + first * self.width, self.width,
                         self.probabilities[first:last + 1])

    # -- probability queries ---------------------------------------------------

    def cdf(self, x):
        """P(X <= x), treating mass as concentrated at bin centers."""
        grid = self.support
        x = np.asarray(x, dtype=float)
        cumulative = np.concatenate([[0.0], np.cumsum(self.probabilities)])
        indices = np.searchsorted(grid, x, side="right")
        result = cumulative[indices]
        return float(result) if result.ndim == 0 else result

    def sf(self, x):
        """P(X > x), the survival function (on-time-arrival probability
        when X is a travel time and x a deadline uses ``1 - sf``)."""
        return 1.0 - self.cdf(x)

    def quantile(self, q):
        """Smallest support value with CDF >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        cumulative = np.cumsum(self.probabilities)
        index = int(np.searchsorted(cumulative, q - 1e-12))
        index = min(index, len(self.probabilities) - 1)
        return float(self.support[index])

    def expectation(self, function):
        """E[function(X)] for a vectorized ``function`` (utility support)."""
        return float(np.asarray(function(self.support)) @ self.probabilities)

    def sample(self, n_samples, rng=None):
        """Draw samples (bin centers jittered uniformly within the bin)."""
        rng = ensure_rng(rng)
        indices = rng.choice(len(self.probabilities), size=int(n_samples),
                             p=self.probabilities)
        jitter = rng.uniform(-self.width / 2, self.width / 2,
                             size=int(n_samples))
        return self.support[indices] + jitter

    # -- algebra ------------------------------------------------------------------

    def rebinned(self, width, *, start=None):
        """Re-express this histogram on a grid of the given ``width``.

        Mass of each old bin is assigned to the nearest new bin center.
        """
        check_positive(width, "width")
        if start is None:
            start = self.start
        old = self.support
        indices = np.round((old - start) / width).astype(int)
        offset = indices.min()
        indices -= offset
        new_start = start + offset * width
        probabilities = np.zeros(indices.max() + 1)
        np.add.at(probabilities, indices, self.probabilities)
        return Histogram(new_start, width, probabilities)

    def convolve(self, other):
        """Distribution of the sum of two *independent* costs.

        This is exactly how the edge-centric paradigm [15] composes a
        path distribution from edge distributions.  The coarser of the
        two bin widths is used for the result.
        """
        if not isinstance(other, Histogram):
            raise TypeError("can only convolve with another Histogram")
        width = max(self.width, other.width)
        a = self.rebinned(width)
        b = other.rebinned(width, start=a.start)
        probabilities = np.convolve(a.probabilities, b.probabilities)
        return Histogram(a.start + b.start, width, probabilities)

    def shift(self, offset):
        """The distribution of ``X + offset``: the same probability
        vector, bit for bit, moved by a finite ``offset``."""
        offset = float(offset)
        if not math.isfinite(offset):
            raise ValueError(f"offset must be finite, got {offset!r}")
        return Histogram._trusted(self.start + offset, self.width,
                                  self.probabilities)

    @staticmethod
    def mixture(components, weights):
        """Weighted mixture of histograms on a common grid."""
        if len(components) != len(weights):
            raise ValueError("components and weights must align")
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = check_probability_vector(weights, "weights")
        width = max(c.width for c in components)
        start = min(c.start for c in components)
        rebinned = [c.rebinned(width, start=start) for c in components]
        offsets = [
            int(round((component.start - start) / width))
            for component in rebinned
        ]
        length = max(
            offset + len(component)
            for offset, component in zip(offsets, rebinned)
        )
        probabilities = np.zeros(length)
        for component, weight, offset in zip(rebinned, weights, offsets):
            stop = offset + len(component)
            probabilities[offset:stop] += weight * component.probabilities
        return Histogram(start, width, probabilities)

    def truncated(self, low=None, high=None):
        """Condition on ``low <= X <= high`` (renormalized)."""
        grid = self.support
        keep = np.ones(len(grid), dtype=bool)
        if low is not None:
            keep &= grid >= low
        if high is not None:
            keep &= grid <= high
        if not keep.any() or self.probabilities[keep].sum() <= 0:
            raise ValueError("truncation removes all probability mass")
        probabilities = np.where(keep, self.probabilities, 0.0)
        first = int(np.flatnonzero(keep)[0])
        return Histogram(float(grid[first]), self.width,
                         probabilities[keep])


def _restore_histogram(cls, start, width, buffer):
    """Unpickle a :class:`Histogram`; the probabilities are a writeable
    float64 copy of ``buffer``."""
    return cls._trusted(start, width, np.frombuffer(bytearray(buffer)))


def _grouped_histograms(values, sizes, n_bins):
    """``Histogram.from_samples(group, n_bins)`` of every group at once.

    ``values`` holds the groups back to back and ``sizes`` their
    (positive) lengths.  One pass reproduces, row by row, what
    ``from_samples`` does per group: the padded range, the ``linspace``
    edges, and ``np.histogram``'s uniform-bin rule with its ±1 index
    corrections and inclusive last bin, so every histogram is
    bit-identical to the per-group one.  The histograms are valid by
    construction, so they skip ``Histogram.__init__``'s checks; its
    second normalisation is kept, row by row, for the same bits.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if not len(sizes):
        return []
    bounds = np.cumsum(sizes) - sizes
    low = np.minimum.reduceat(values, bounds)
    high = np.maximum.reduceat(values, bounds)
    high = np.where(high == low, low + 1e-9, high)
    with np.errstate(over="ignore"):  # an overflow raises just below
        span = high - low
    low = low - 1e-9 * span
    high = high + 1e-9 * span
    infinite = np.flatnonzero(~(np.isfinite(low) & np.isfinite(high)))
    if len(infinite):
        row = infinite[0]
        raise ValueError(f"supplied range of [{low[row]}, {high[row]}] "
                         f"is not finite")
    # np.histogram widens a range that is still empty by 0.5 each way.
    flat = low == high
    low = np.where(flat, low - 0.5, low)
    high = np.where(flat, high + 0.5, high)
    # np.linspace(low, high, n_bins + 1) per row, denormal branch too.
    delta = high - low
    ramp = np.arange(n_bins + 1, dtype=float)
    step = (delta / n_bins)[:, None]
    edges = np.where(step == 0, ramp / n_bins * delta[:, None],
                     ramp * step)
    edges += low[:, None]
    edges[:, -1] = high
    if np.any(edges[:, :-1] >= edges[:, 1:]):
        raise ValueError(f"Too many bins for data range. Cannot create "
                         f"{n_bins} finite-sized bins.")
    group = np.repeat(np.arange(len(sizes)), sizes)
    index = ((values - low[group]) / delta[group] * n_bins).astype(np.intp)
    index[index == n_bins] -= 1
    index[values < edges[group, index]] -= 1
    index[(values >= edges[group, index + 1]) & (index != n_bins - 1)] += 1
    counts = np.bincount(group * n_bins + index,
                         minlength=len(sizes) * n_bins)
    counts = counts.reshape(len(sizes), n_bins)
    width = edges[:, 1] - edges[:, 0]
    centers = edges[:, 0] + width / 2
    probabilities = counts / counts.sum(axis=1, keepdims=True)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    return [
        Histogram._trusted(center, bin_width, row)
        for center, bin_width, row in zip(centers.tolist(), width.tolist(),
                                          probabilities)
    ]


class GaussianMixture:
    """A univariate Gaussian mixture fit by expectation-maximization.

    The second distribution family the paper calls out for uncertainty
    quantification.  Used where smooth tails matter (demand forecasting,
    E23) and as an alternative representation in the uncertainty layer.
    """

    def __init__(self, means, stds, weights):
        self.means = as_float_array(means, "means", ndim=1)
        self.stds = as_float_array(stds, "stds", ndim=1)
        if np.any(self.stds <= 0):
            raise ValueError("component stds must be positive")
        self.weights = check_probability_vector(weights, "weights")
        if not len(self.means) == len(self.stds) == len(self.weights):
            raise ValueError("means, stds and weights must align")

    @property
    def n_components(self):
        return len(self.weights)

    def __repr__(self):
        return (
            f"GaussianMixture(components={self.n_components}, "
            f"mean={self.mean():.3f}, std={self.std():.3f})"
        )

    # -- fitting -----------------------------------------------------------

    @classmethod
    def fit(cls, samples, n_components=2, *, n_iterations=100, tol=1e-6,
            rng=None):
        """Fit by EM with k-means++-style initialization.

        Degenerate components (vanishing responsibility or variance) are
        re-seeded from the data, so the fit is robust to unlucky starts.
        """
        data = as_float_array(samples, "samples", ndim=1)
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        if len(data) < n_components:
            raise ValueError("need at least one sample per component")
        rng = ensure_rng(rng)

        spread = data.std() if data.std() > 0 else 1.0
        means = np.quantile(
            data, np.linspace(0.1, 0.9, n_components)
        ) + rng.normal(0, 1e-3 * spread, n_components)
        stds = np.full(n_components, max(spread / n_components, 1e-3))
        weights = np.full(n_components, 1.0 / n_components)

        previous = -np.inf
        for _ in range(int(n_iterations)):
            # E step: responsibilities.
            log_density = (
                -0.5 * ((data[:, None] - means) / stds) ** 2
                - np.log(stds)
                - 0.5 * math.log(2 * math.pi)
                + np.log(weights)
            )
            peak = log_density.max(axis=1, keepdims=True)
            density = np.exp(log_density - peak)
            total = density.sum(axis=1, keepdims=True)
            responsibility = density / total
            log_likelihood = float((np.log(total) + peak).sum())

            # M step.
            mass = responsibility.sum(axis=0)
            for k in range(n_components):
                if mass[k] < 1e-8:  # dead component: re-seed.
                    means[k] = float(rng.choice(data))
                    stds[k] = max(spread / n_components, 1e-3)
                    mass[k] = 1.0
                    continue
                means[k] = float(responsibility[:, k] @ data / mass[k])
                variance = float(
                    responsibility[:, k] @ (data - means[k]) ** 2 / mass[k]
                )
                stds[k] = math.sqrt(max(variance, 1e-8))
            weights = mass / mass.sum()

            if abs(log_likelihood - previous) < tol:
                break
            previous = log_likelihood
        return cls(means, stds, weights)

    # -- queries --------------------------------------------------------------

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        density = (
            np.exp(-0.5 * ((x[..., None] - self.means) / self.stds) ** 2)
            / (self.stds * math.sqrt(2 * math.pi))
        )
        result = density @ self.weights
        return float(result) if result.ndim == 0 else result

    def cdf(self, x):
        from scipy.stats import norm

        x = np.asarray(x, dtype=float)
        component = norm.cdf((x[..., None] - self.means) / self.stds)
        result = component @ self.weights
        return float(result) if result.ndim == 0 else result

    def mean(self):
        return float(self.weights @ self.means)

    def variance(self):
        second_moment = self.weights @ (self.stds ** 2 + self.means ** 2)
        return float(second_moment - self.mean() ** 2)

    def std(self):
        return math.sqrt(max(self.variance(), 0.0))

    def quantile(self, q, *, tol=1e-8):
        """Numeric quantile by bisection on the CDF."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q!r}")
        low = float((self.means - 10 * self.stds).min())
        high = float((self.means + 10 * self.stds).max())
        while high - low > tol * max(1.0, abs(high) + abs(low)):
            middle = (low + high) / 2
            if self.cdf(middle) < q:
                low = middle
            else:
                high = middle
        return (low + high) / 2

    def sample(self, n_samples, rng=None):
        rng = ensure_rng(rng)
        components = rng.choice(self.n_components, size=int(n_samples),
                                p=self.weights)
        return rng.normal(self.means[components], self.stds[components])

    def to_histogram(self, n_bins=60):
        """Discretize onto a regular grid (to interoperate with
        :class:`Histogram` algebra)."""
        low = float((self.means - 5 * self.stds).min())
        high = float((self.means + 5 * self.stds).max())
        edges = np.linspace(low, high, n_bins + 1)
        mass = np.diff(self.cdf(edges))
        width = edges[1] - edges[0]
        return Histogram(edges[0] + width / 2, width, np.maximum(mass, 0.0))
