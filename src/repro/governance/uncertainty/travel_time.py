"""Time-varying uncertain road-network models (paper §II-B).

Traffic cost uncertainty is modeled by ``(I, D)`` pairs — travel cost
follows distribution ``D`` within time interval ``I``.  The paper
contrasts two paradigms:

* the **edge-centric** paradigm [15] assigns a distribution to every
  edge and treats edges as independent; composing a path means
  convolving the edge distributions — cheap, but it ignores the
  correlation between consecutive edges, so path variance is
  systematically misestimated when congestion is correlated;
* the **path-centric** paradigm (PACE [4], [5]) additionally learns
  joint distributions of frequently traversed *sub-paths*; a query path
  is covered with the longest available sub-paths, which captures the
  correlations inside each covered stretch and "balances efficiency and
  precision".

Both models are fit from trips — ``(node_path, edge_times,
departure_minute)`` triples produced either by the trajectory simulator
or by map-matched GPS traces.
"""

from __future__ import annotations

import math

import numpy as np

from ..._validation import check_positive, trapezoid
from .distributions import GaussianMixture, Histogram, _grouped_histograms

__all__ = [
    "TimeVaryingDistribution",
    "EdgeCentricModel",
    "PathCentricModel",
    "wasserstein_distance",
]

#: Minutes per day, and the whole-day fallback interval.
_DAY = 24 * 60.0
_FULL_DAY = ((0.0, _DAY),)


def wasserstein_distance(first, second, *, n_grid=400):
    """Wasserstein-1 distance between two histogram distributions.

    Computed as the integral of the absolute CDF difference on a shared
    grid; the metric used to score distribution estimates in E5.
    """
    low = min(first.min(), second.min())
    high = max(first.max(), second.max())
    if high <= low:
        return 0.0
    grid = np.linspace(low, high, int(n_grid))
    gap = np.abs(first.cdf(grid) - second.cdf(grid))
    return float(trapezoid(gap, grid))


class TimeVaryingDistribution:
    """A piecewise-constant distribution over intervals of the day.

    Parameters
    ----------
    intervals:
        Sequence of ``(start_minute, end_minute)`` pairs partitioning
        (part of) the day; lookups outside every interval fall back to
        the nearest one.
    distributions:
        One :class:`Histogram` per interval.
    """

    def __init__(self, intervals, distributions):
        intervals = _checked_intervals(intervals)
        if len(intervals) != len(distributions):
            raise ValueError("intervals and distributions must align")
        self.intervals = intervals
        self.distributions = list(distributions)

    @classmethod
    def _shared(cls, intervals, distributions):
        """A distribution over an already checked ``intervals`` tuple,
        held by reference, so one model's keys share one tuple."""
        distribution = cls.__new__(cls)
        distribution.intervals = intervals
        distribution.distributions = distributions
        return distribution

    def at(self, minute):
        """The distribution in force at ``minute`` (of day)."""
        return self.distributions[_interval_index(self.intervals, minute)]


def _checked_intervals(intervals):
    """``intervals`` as a tuple of float ``(start, end)`` pairs, each
    non-empty, at least one."""
    intervals = tuple(tuple(map(float, pair)) for pair in intervals)
    if not intervals:
        raise ValueError("need at least one interval")
    for start, end in intervals:
        if end <= start:
            raise ValueError(f"empty interval ({start}, {end})")
    return intervals


def _interval_index(intervals, minutes):
    """The interval ``minutes`` (taken modulo one day) fall in.

    A minute inside no interval gets the one whose midpoint is nearest,
    the first of them on a tie; one inside several gets the first.
    Works elementwise on an array and returns a 0-d index for a scalar.
    """
    if len(intervals) == 1:
        return np.zeros(np.shape(minutes), dtype=np.intp)
    minutes = np.mod(minutes, _DAY)
    index = np.argmin([abs((start + end) / 2 - minutes)
                       for start, end in intervals], axis=0)
    for position in range(len(intervals) - 1, -1, -1):
        start, end = intervals[position]
        index = np.where((start <= minutes) & (minutes < end), position,
                         index)
    return index


def _check_trip(index, path, edge_times, departure):
    """Validate one trip; the error names it by ``index``."""
    times = np.asarray(edge_times, dtype=float)
    if times.shape != (max(len(path) - 1, 0),):
        raise ValueError(
            f"trip {index}: edge_times must match the path edges")
    departure = float(departure)
    if not (math.isfinite(departure) and np.isfinite(times).all()):
        raise ValueError(
            f"trip {index}: edge times and departure must be finite")


def _trips_by_path(trips):
    """Validate ``(path, edge_times, departure_minute)`` trips and group
    them by path, in first-seen order.

    Returns ``{path: (trip_indices, times, departures)}``, with each
    group's edge times stacked ``(n, E)`` and its departures ``(n,)``,
    and the number of trips.  Each group is checked as one stack; when
    any check fails, the trips are checked again one by one, so the
    error names the first bad trip.  Nothing is returned unless every
    trip is valid, so a bad trip leaves the caller's model as it was.
    """
    rows = []
    groups = {}
    try:
        for row in trips:
            rows.append(row)
            path, edge_times, departure = row
            indices, stack, departures = groups.setdefault(
                tuple(path), ([], [], []))
            indices.append(len(rows) - 1)
            stack.append(edge_times)
            departures.append(float(departure))
        if not rows:
            raise ValueError("fit needs at least one trip")
        for path, (indices, stack, departures) in groups.items():
            times = np.array(stack, dtype=float)
            departures = np.array(departures)
            if times.shape != (len(stack), max(len(path) - 1, 0)) or not (
                    np.isfinite(times).all()
                    and np.isfinite(departures).all()):
                raise ValueError(f"trips on path {path!r} are invalid")
            groups[path] = (indices, times, departures)
    except Exception:
        # Name the first bad trip, as checking trip by trip would.
        for index, (path, edge_times, departure) in enumerate(rows):
            _check_trip(index, tuple(path), edge_times, departure)
        raise
    return groups, len(rows)


class _TravelTimeModel:
    """The fit both paradigms share: every traversal of every key
    (an edge or a sub-path), binned per interval of the day, in one
    columnar pass.

    ``representation`` selects how the empirical samples are summarized
    — ``"histogram"`` (default) or ``"gmm"`` (a Gaussian mixture fit by
    EM, then discretized so the Histogram algebra still applies); the
    two options the paper names for uncertainty quantification.  A
    fitted model keeps only its distributions, never the samples, and
    pickles them as columns: the keys, and each (key, interval)
    histogram's start, width, length and probabilities stacked.
    """

    def __init__(self, intervals, n_bins, representation, n_components):
        check_positive(n_bins, "n_bins")
        if representation not in ("histogram", "gmm"):
            raise ValueError(
                f"representation must be 'histogram' or 'gmm', "
                f"got {representation!r}"
            )
        self._intervals = _checked_intervals(intervals)
        self._n_bins = int(n_bins)
        self._representation = representation
        self._n_components = int(n_components)
        self._fitted = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        histograms = [histogram for fitted in state["_fitted"].values()
                      for histogram in fitted.distributions]
        state["_fitted"] = (
            list(state["_fitted"]),
            np.array([histogram.start for histogram in histograms]),
            np.array([histogram.width for histogram in histograms]),
            np.array([len(histogram) for histogram in histograms],
                     dtype=np.intp),
            np.concatenate([histogram.probabilities
                            for histogram in histograms] or [[]]),
        )
        return state

    def __setstate__(self, state):
        keys, starts, widths, lengths, probabilities = state["_fitted"]
        ends = np.cumsum(lengths).tolist()
        rows = [probabilities[end - length:end]
                for end, length in zip(ends, lengths.tolist())]
        histograms = list(map(Histogram._trusted, starts.tolist(),
                              widths.tolist(), rows))
        intervals = state["_intervals"]
        n_intervals = len(intervals)
        state["_fitted"] = {
            key: TimeVaryingDistribution._shared(
                intervals, histograms[k * n_intervals:(k + 1) * n_intervals])
            for k, key in enumerate(keys)
        }
        self.__dict__.update(state)

    def _spans(self, times, departures):
        """``(begin, end, durations, minutes)`` of the keys one path
        yields, for an ``(n, E)`` stack of its trips' edge times."""
        raise NotImplementedError

    def _traversals(self, trips):
        """Every traversal of every key, in the order the trips make
        them: trip by trip, and along each trip as ``_spans`` lists
        them.

        Returns the keys in first-seen order and three aligned arrays:
        each traversal's key index, duration and start minute.
        """
        groups, n_trips = _trips_by_path(trips)
        keys = {}
        n_spans = np.zeros(n_trips, dtype=np.intp)
        blocks = []
        for path, (indices, stack, departures) in groups.items():
            if len(path) < 2:
                continue
            begin, end, durations, minutes = self._spans(stack, departures)
            ids = [keys.setdefault(path[b:e + 1], len(keys))
                   for b, e in zip(begin, end)]
            n_spans[indices] = len(ids)
            blocks.append((indices, ids, durations, minutes))
        offsets = np.cumsum(n_spans) - n_spans
        key_of = np.empty(int(n_spans.sum()), dtype=np.intp)
        value = np.empty(len(key_of))
        minute = np.empty(len(key_of))
        for indices, ids, durations, minutes in blocks:
            rank = (offsets[indices][:, None] + np.arange(len(ids))).ravel()
            key_of[rank] = np.tile(ids, len(indices))
            value[rank] = durations.ravel()
            minute[rank] = minutes.ravel()
        return list(keys), key_of, value, minute

    def _fit(self, trips, min_support):
        """``{key: TimeVaryingDistribution}`` over every edge and every
        key traversed at least ``min_support`` times.

        Keys keep first-seen order, and each (key, interval) group its
        samples in traversal order, which the EM fit of ``"gmm"``
        depends on.
        """
        keys, key_of, value, minute = self._traversals(trips)
        counts = np.bincount(key_of, minlength=len(keys))
        kept = np.array([len(key) == 2 or count >= min_support
                         for key, count in zip(keys, counts.tolist())],
                        dtype=bool)
        chosen = kept[key_of]
        n_intervals = len(self._intervals)
        group = key_of[chosen] * n_intervals + _interval_index(
            self._intervals, minute[chosen])
        # The narrowest key dtype lets numpy pick a radix sort.
        order = np.argsort(group.astype(np.min_scalar_type(
            int(group.max(initial=0)))), kind="stable")
        group, value = group[order], value[chosen][order]
        first = np.flatnonzero(np.diff(group, prepend=-1))
        sizes = np.diff(np.r_[first, len(group)])
        seg_key, seg_interval = np.divmod(group[first], n_intervals)
        # A key with an empty interval falls back there to all of its
        # samples, pooled in first-seen-interval order.
        short = np.bincount(seg_key, minlength=len(keys)) < n_intervals
        fallback_keys = np.flatnonzero(short & kept)
        pooled = np.flatnonzero(short[seg_key])
        pooled = pooled[np.lexsort((order[first[pooled]], seg_key[pooled]))]
        pooled_sizes = sizes[pooled]
        gather = np.repeat(first[pooled] - np.cumsum(pooled_sizes)
                           + pooled_sizes, pooled_sizes)
        gather += np.arange(len(gather))
        summaries = self._summaries(
            np.concatenate([value, value[gather]]),
            np.concatenate([sizes, counts[fallback_keys]]))
        seg_key = seg_key.tolist()
        table = {key: [None] * n_intervals for key in seg_key}
        for summary, key, interval in zip(summaries, seg_key,
                                          seg_interval.tolist()):
            table[key][interval] = summary
        for key, fallback in zip(fallback_keys.tolist(),
                                 summaries[len(sizes):]):
            table[key] = [fallback if summary is None else summary
                          for summary in table[key]]
        return {
            keys[key]: TimeVaryingDistribution._shared(self._intervals,
                                                       table[key])
            for key in np.flatnonzero(kept).tolist()
        }

    def _summaries(self, values, sizes):
        """One distribution per contiguous group of ``values``."""
        mixture = ((self._representation == "gmm")
                   & (sizes >= 3 * self._n_components))
        plain = np.flatnonzero(~mixture)
        summaries = [None] * len(sizes)
        histograms = _grouped_histograms(
            values[np.repeat(~mixture, sizes)], sizes[plain], self._n_bins)
        for index, histogram in zip(plain, histograms):
            summaries[index] = histogram
        bounds = np.cumsum(sizes) - sizes
        for index in np.flatnonzero(mixture):
            samples = values[bounds[index]:bounds[index] + sizes[index]]
            summaries[index] = GaussianMixture.fit(
                samples, self._n_components,
                rng=np.random.default_rng(len(samples)),
            ).to_histogram(self._n_bins)
        return summaries


class EdgeCentricModel(_TravelTimeModel):
    """Per-edge ``(I, D)`` travel-time distributions, edges independent.

    Parameters
    ----------
    intervals:
        Day partition; defaults to one whole-day interval.
    n_bins:
        Histogram resolution.
    """

    def __init__(self, *, intervals=_FULL_DAY, n_bins=25,
                 representation="histogram", n_components=2):
        super().__init__(intervals, n_bins, representation, n_components)

    def _spans(self, times, departures):
        # The clock runs edge by edge: departure + d0 + d1 + ...
        clock = np.cumsum(np.column_stack([departures, times]), axis=1)
        begin = np.arange(times.shape[1])
        return begin, begin + 1, times, clock[:, :-1]

    def fit(self, trips):
        """Fit from ``(path, edge_times, departure_minute)`` triples.

        Replaces any earlier fit.  Every trip is validated first; on a
        ``ValueError`` the model answers exactly as before.
        """
        self._fitted = self._fit(trips, min_support=1)
        return self

    @property
    def n_edges(self):
        return len(self._fitted)

    def edge_distribution(self, u, v, minute=0.0):
        """The fitted distribution of edge ``(u, v)`` at ``minute``."""
        fitted = self._fitted.get((u, v))
        if fitted is None:
            raise KeyError(f"no traversals observed for edge ({u!r}, {v!r})")
        return fitted.at(minute)

    def path_distribution(self, path, departure_minute=0.0):
        """Convolve edge distributions along ``path`` (independence).

        The clock is advanced by each edge's mean so later edges use the
        right interval.
        """
        edges = list(zip(path, path[1:]))
        if not edges:
            raise ValueError("path needs at least one edge")
        minute = float(departure_minute)
        result = None
        for u, v in edges:
            distribution = self.edge_distribution(u, v, minute)
            result = (distribution if result is None
                      else result.convolve(distribution))
            minute += distribution.mean()
        return result


class PathCentricModel(_TravelTimeModel):
    """PACE-style joint distributions over frequent sub-paths.

    Sub-paths of length up to ``max_subpath_edges`` that were traversed
    at least ``min_support`` times get their *own* empirical travel-time
    distribution, capturing the correlation between their edges.  A
    query path is covered greedily with the longest supported sub-paths;
    segments are then convolved (independent across segments only).

    Length-1 sub-paths (single edges) are always retained, so any path
    whose edges were observed can be answered — with edge-centric
    accuracy in the worst case and full-path accuracy in the best.
    """

    def __init__(self, *, max_subpath_edges=6, min_support=5,
                 intervals=_FULL_DAY, n_bins=25,
                 representation="histogram", n_components=2):
        if max_subpath_edges < 1:
            raise ValueError("max_subpath_edges must be >= 1")
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        super().__init__(intervals, n_bins, representation, n_components)
        self.max_subpath_edges = int(max_subpath_edges)
        self.min_support = int(min_support)

    def _spans(self, times, departures):
        # Every sub-path of up to max_subpath_edges edges: a column
        # difference of the trips' elapsed-time offsets.
        n_edges = times.shape[1]
        begin, end = np.array([
            (b, e) for b in range(n_edges)
            for e in range(b + 1, min(n_edges, b + self.max_subpath_edges)
                           + 1)
        ]).T
        offsets = np.zeros((len(times), n_edges + 1))
        np.cumsum(times, axis=1, out=offsets[:, 1:])
        return (begin, end, offsets[:, end] - offsets[:, begin],
                departures[:, None] + offsets[:, begin])

    def fit(self, trips):
        """Fit from ``(path, edge_times, departure_minute)`` triples.

        Replaces any earlier fit.  Every trip is validated first; on a
        ``ValueError`` the model answers exactly as before.
        """
        self._fitted = self._fit(trips, self.min_support)
        return self

    @property
    def n_subpaths(self):
        return len(self._fitted)

    def coverage(self, path):
        """Greedy longest-sub-path cover of ``path``.

        Returns a list of node tuples whose concatenation is the path.
        """
        path = list(path)
        if len(path) < 2:
            raise ValueError("path needs at least one edge")
        pieces = []
        position = 0
        while position < len(path) - 1:
            found = None
            longest = min(len(path) - 1 - position, self.max_subpath_edges)
            for span in range(longest, 0, -1):
                key = tuple(path[position:position + span + 1])
                if key in self._fitted:
                    found = key
                    break
            if found is None:
                edge = (path[position], path[position + 1])
                raise KeyError(f"no traversals observed for edge {edge!r}")
            pieces.append(found)
            position += len(found) - 1
        return pieces

    def path_distribution(self, path, departure_minute=0.0):
        """Convolve the covering segments' joint distributions."""
        minute = float(departure_minute)
        result = None
        for piece in self.coverage(path):
            distribution = self._fitted[piece].at(minute)
            result = (distribution if result is None
                      else result.convolve(distribution))
            minute += distribution.mean()
        return result
