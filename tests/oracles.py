"""Slow reference implementations that fast paths in ``src`` are
diffed against.  Not collected by pytest; imported by the tests.

``fit_edge_reference`` / ``fit_path_reference`` are the per-sample loop
fits of the travel-time models: every traversal is appended to a
``{key: {interval: [samples]}}`` store one at a time, and every
(key, interval) list is summarized on its own with
``Histogram.from_samples`` (or a ``GaussianMixture`` fit).  They return
the ``{key: TimeVaryingDistribution}`` a fitted model holds, in the
model's key order.
"""

import numpy as np

from repro.governance.uncertainty import (
    GaussianMixture,
    Histogram,
    TimeVaryingDistribution,
)

FULL_DAY = ((0.0, 24 * 60.0),)


class _SampleStore:
    """Per-key, per-interval traversal-time samples, in arrival order."""

    def __init__(self, intervals, n_bins, representation, n_components):
        self.intervals = [tuple(map(float, pair)) for pair in intervals]
        self.n_bins = int(n_bins)
        self.representation = representation
        self.n_components = int(n_components)
        self.samples = {}

    def interval_index(self, minute):
        minute = float(minute) % (24 * 60)
        for index, (start, end) in enumerate(self.intervals):
            if start <= minute < end:
                return index
        midpoints = [
            abs((start + end) / 2 - minute) for start, end in self.intervals
        ]
        return int(np.argmin(midpoints))

    def add(self, key, minute, value):
        bucket = self.samples.setdefault(key, {})
        bucket.setdefault(self.interval_index(minute), []).append(
            float(value))

    def count(self, key):
        return sum(len(samples) for samples in self.samples[key].values())

    def summarize(self, samples):
        samples = np.asarray(samples)
        if self.representation == "gmm" and \
                len(samples) >= 3 * self.n_components:
            mixture = GaussianMixture.fit(
                samples, self.n_components,
                rng=np.random.default_rng(len(samples)))
            return mixture.to_histogram(self.n_bins)
        return Histogram.from_samples(samples, n_bins=self.n_bins)

    def distribution(self, key):
        bucket = self.samples[key]
        pooled = [v for samples in bucket.values() for v in samples]
        fallback = self.summarize(pooled)
        distributions = [
            self.summarize(bucket[index]) if index in bucket else fallback
            for index in range(len(self.intervals))
        ]
        return TimeVaryingDistribution(self.intervals, distributions)


def fit_edge_reference(trips, *, intervals=FULL_DAY, n_bins=25,
                       representation="histogram", n_components=2):
    """``EdgeCentricModel(...).fit(trips)._fitted``, one sample at a
    time; the clock advances by each edge's time."""
    store = _SampleStore(intervals, n_bins, representation, n_components)
    for path, edge_times, departure in trips:
        minute = float(departure)
        edges = list(zip(path, path[1:]))
        if len(edge_times) != len(edges):
            raise ValueError("edge_times must match the path edges")
        for edge, duration in zip(edges, edge_times):
            store.add(edge, minute, duration)
            minute += float(duration)
    return {key: store.distribution(key) for key in store.samples}


def fit_path_reference(trips, *, max_subpath_edges=6, min_support=5,
                       intervals=FULL_DAY, n_bins=25,
                       representation="histogram", n_components=2):
    """``PathCentricModel(...).fit(trips)._fitted``, one sub-path
    traversal at a time."""
    store = _SampleStore(intervals, n_bins, representation, n_components)
    for path, edge_times, departure in trips:
        edges = list(zip(path, path[1:]))
        if len(edge_times) != len(edges):
            raise ValueError("edge_times must match the path edges")
        starts = np.concatenate([[0.0], np.cumsum(edge_times)])
        for begin in range(len(edges)):
            limit = min(len(edges), begin + max_subpath_edges)
            for end in range(begin + 1, limit + 1):
                key = tuple(path[begin:end + 1])
                minute = float(departure) + float(starts[begin])
                duration = float(starts[end] - starts[begin])
                store.add(key, minute, duration)
    return {
        key: store.distribution(key)
        for key in store.samples
        if len(key) == 2 or store.count(key) >= min_support
    }
