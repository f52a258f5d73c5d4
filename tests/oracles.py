"""Slow reference implementations that fast paths in ``src`` are
diffed against.  Not collected by pytest; imported by the tests.

``fit_edge_reference`` / ``fit_path_reference`` are the per-sample loop
fits of the travel-time models: every traversal is appended to a
``{key: {interval: [samples]}}`` store one at a time, and every
(key, interval) list is summarized on its own with
``Histogram.from_samples`` (or a ``GaussianMixture`` fit).  They return
the ``{key: TimeVaryingDistribution}`` a fitted model holds, in the
model's key order.

``skyline_reference`` is the route-skyline search on 2-element numpy
label arrays that ``SkylineRouter.skyline`` replaced; it is the oracle
only where ``max_labels`` never binds (when it binds, it can re-queue a
node forever).  ``_dominance_prune_pairwise`` is the k² pairwise
stochastic-dominance prune that ``dominance_prune`` replaced.
"""

import numpy as np

from repro.decision.pareto import dominates
from repro.decision.stochastic import (
    first_order_dominates,
    second_order_dominates,
)
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


def skyline_reference(network, objectives, origin, destination, *,
                      max_labels=64):
    """Route skyline with numpy labels: ``(path, cost)`` pairs."""
    if origin == destination:
        raise ValueError("origin and destination must differ")

    def edge_cost(u, v):
        return np.array([float(network.edge_attribute(u, v, name, 0.0))
                         for name in objectives])

    def merge(existing, candidates):
        pool = list(existing)
        changed = False
        for cost, path in candidates:
            dominated = False
            for other_cost, _ in pool:
                if dominates(other_cost, cost) or np.allclose(other_cost,
                                                              cost):
                    dominated = True
                    break
            if dominated:
                continue
            pool = [
                (other_cost, other_path) for other_cost, other_path in pool
                if not dominates(cost, other_cost)
            ]
            pool.append((cost, path))
            changed = True
        if not changed:
            return None
        if len(pool) > max_labels:
            pool.sort(key=lambda label: label[0].sum())
            pool = pool[:max_labels]
        return pool

    labels = {origin: [(np.zeros(len(objectives)), [origin])]}
    queue = [origin]
    while queue:
        node = queue.pop(0)
        node_labels = list(labels.get(node, []))
        for successor in network.successors(node):
            cost_row = edge_cost(node, successor)
            candidates = [(cost + cost_row, path + [successor])
                          for cost, path in node_labels
                          if successor not in path]
            if not candidates:
                continue
            merged = merge(labels.get(successor, []), candidates)
            if merged is not None:
                labels[successor] = merged
                if successor not in queue:
                    queue.append(successor)
    return [(path, cost.copy()) for cost, path in
            labels.get(destination, [])]


def _dominance_prune_pairwise(candidates, *, order=1, tol=1e-9):
    """Indices of the candidates no other candidate dominates, by k²
    independent pairwise dominance calls (all of them when every one
    is dominated within tolerance)."""
    dominates_fn = (first_order_dominates if order == 1
                    else second_order_dominates)
    candidates = list(candidates)
    survivors = []
    for index, candidate in enumerate(candidates):
        dominated = False
        for other_index, other in enumerate(candidates):
            if other_index == index:
                continue
            if dominates_fn(other, candidate, tol=tol):
                dominated = True
                break
        if not dominated:
            survivors.append(index)
    if not survivors:
        survivors = list(range(len(candidates)))
    return survivors
