"""Tests for the edge-centric vs path-centric uncertainty models."""

import functools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork
from repro.datasets import TrafficSimulator
from repro.governance.uncertainty import (
    EdgeCentricModel,
    Histogram,
    PathCentricModel,
    TimeVaryingDistribution,
    wasserstein_distance,
)
from repro.governance.uncertainty.distributions import _grouped_histograms
from repro.governance.uncertainty.travel_time import _interval_index

from .oracles import (
    _SampleStore,
    check_trips_reference,
    fit_edge_reference,
    fit_path_reference,
)


@pytest.fixture(scope="module")
def setup():
    network = RoadNetwork.grid(5, 5)
    simulator = TrafficSimulator(
        network, sigma_correlated=0.35, sigma_independent=0.1,
        rng=np.random.default_rng(1),
    )
    paths = [
        network.shortest_path((0, 0), (4, 4)),
        network.shortest_path((0, 4), (4, 0)),
    ]
    rng = np.random.default_rng(11)
    trips = []
    for _ in range(250):
        for path in paths:
            edges = network.path_edges(path)
            times = simulator.sample_edge_times(edges, departure_minute=480,
                                                rng=rng)
            trips.append((path, times, 480.0))
    return network, simulator, paths, trips


class TestTimeVaryingDistribution:
    def test_interval_lookup(self):
        morning = Histogram.point_mass(10.0)
        evening = Histogram.point_mass(20.0)
        tv = TimeVaryingDistribution(
            [(0, 720), (720, 1440)], [morning, evening])
        assert tv.at(100).mean() == pytest.approx(10.0)
        assert tv.at(800).mean() == pytest.approx(20.0)

    def test_wraps_midnight(self):
        tv = TimeVaryingDistribution([(0, 1440)],
                                     [Histogram.point_mass(5.0)])
        assert tv.at(1500).mean() == pytest.approx(5.0)

    def test_fallback_to_nearest(self):
        tv = TimeVaryingDistribution([(0, 100), (1000, 1100)],
                                     [Histogram.point_mass(1.0),
                                      Histogram.point_mass(2.0)])
        assert tv.at(150).mean() == pytest.approx(1.0)
        assert tv.at(900).mean() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeVaryingDistribution([(10, 10)], [Histogram.point_mass(1.0)])
        with pytest.raises(ValueError):
            TimeVaryingDistribution([], [])


class TestEdgeCentricModel:
    def test_fit_covers_observed_edges(self, setup):
        network, _, paths, trips = setup
        model = EdgeCentricModel().fit(trips)
        used = {edge for path in paths for edge in network.path_edges(path)}
        assert model.n_edges == len(used)

    def test_unobserved_edge_raises(self, setup):
        _, _, _, trips = setup
        model = EdgeCentricModel().fit(trips)
        with pytest.raises(KeyError):
            model.edge_distribution((3, 3), (3, 4))

    def test_path_mean_close_to_truth(self, setup):
        _, simulator, paths, trips = setup
        model = EdgeCentricModel().fit(trips)
        estimate = model.path_distribution(paths[0], 480)
        truth = simulator.sample_path_times(
            paths[0], 2000, departure_minute=480,
            rng=np.random.default_rng(5))
        assert estimate.mean() == pytest.approx(truth.mean(), rel=0.12)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            EdgeCentricModel().fit([])

    def test_gmm_representation_close_to_histogram(self, setup):
        """The paper's alternative UQ representation: a GMM fit gives a
        comparable distribution estimate to the raw histogram."""
        _, simulator, paths, trips = setup
        gmm = EdgeCentricModel(representation="gmm",
                               n_components=2).fit(trips)
        histogram = EdgeCentricModel().fit(trips)
        d_gmm = gmm.path_distribution(paths[0], 480)
        d_hist = histogram.path_distribution(paths[0], 480)
        assert d_gmm.mean() == pytest.approx(d_hist.mean(), rel=0.1)
        assert d_gmm.std() == pytest.approx(d_hist.std(), rel=0.35)

    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError):
            EdgeCentricModel(representation="parametric")

    def test_mismatched_edge_times_rejected(self, setup):
        _, _, paths, _ = setup
        with pytest.raises(ValueError):
            EdgeCentricModel().fit([(paths[0], [1.0], 0.0)])


class TestPathCentricModel:
    def test_coverage_concatenates_to_path(self, setup):
        _, _, paths, trips = setup
        model = PathCentricModel(min_support=10,
                                 max_subpath_edges=4).fit(trips)
        pieces = model.coverage(paths[0])
        rebuilt = list(pieces[0])
        for piece in pieces[1:]:
            assert rebuilt[-1] == piece[0]
            rebuilt.extend(piece[1:])
        assert rebuilt == list(paths[0])

    def test_longest_pieces_preferred(self, setup):
        _, _, paths, trips = setup
        model = PathCentricModel(min_support=10,
                                 max_subpath_edges=8).fit(trips)
        pieces = model.coverage(paths[0])
        assert len(pieces[0]) - 1 == 8  # whole prefix captured jointly

    def test_path_centric_beats_edge_centric_on_variance(self, setup):
        """The tutorial's central uncertainty claim (E5): the
        path-centric paradigm captures distribution correlations along
        paths that the edge-centric paradigm misses."""
        _, simulator, paths, trips = setup
        edge_model = EdgeCentricModel().fit(trips)
        path_model = PathCentricModel(min_support=10,
                                      max_subpath_edges=8).fit(trips)
        truth = Histogram.from_samples(simulator.sample_path_times(
            paths[0], 3000, departure_minute=480,
            rng=np.random.default_rng(5)))
        edge_estimate = edge_model.path_distribution(paths[0], 480)
        path_estimate = path_model.path_distribution(paths[0], 480)

        edge_error = wasserstein_distance(edge_estimate, truth)
        path_error = wasserstein_distance(path_estimate, truth)
        assert path_error < edge_error
        # Edge-centric systematically underestimates the spread.
        assert edge_estimate.std() < 0.7 * truth.std()
        assert abs(path_estimate.std() - truth.std()) < 0.3 * truth.std()

    def test_falls_back_to_edges_for_unseen_route(self, setup):
        network, _, paths, trips = setup
        model = PathCentricModel(min_support=10).fit(trips)
        # A route mixing pieces of both trained paths was never seen as a
        # whole, but its edges were - coverage should still succeed when
        # edges overlap, otherwise raise KeyError.
        unseen = [(0, 0), (1, 0)]
        first_edges = set(network.path_edges(paths[0]))
        if tuple(unseen) in {tuple(p) for p in (paths[0], paths[1])}:
            pytest.skip("trivial route")
        if (unseen[0], unseen[1]) in first_edges | set(
                network.path_edges(paths[1])):
            distribution = model.path_distribution(unseen)
            assert distribution.mean() > 0
        else:
            with pytest.raises(KeyError):
                model.path_distribution(unseen)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathCentricModel(max_subpath_edges=0)
        with pytest.raises(ValueError):
            PathCentricModel(min_support=0)
        with pytest.raises(ValueError):
            PathCentricModel().fit([])


class TestWasserstein:
    def test_identical_distributions(self):
        histogram = Histogram(0.0, 1.0, [0.5, 0.5])
        assert wasserstein_distance(histogram, histogram) == pytest.approx(
            0.0, abs=1e-9)

    def test_shifted_point_masses(self):
        a = Histogram.point_mass(0.0, width=0.01)
        b = Histogram.point_mass(3.0, width=0.01)
        assert wasserstein_distance(a, b) == pytest.approx(3.0, abs=0.05)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = Histogram.from_samples(rng.normal(0, 1, 300))
        b = Histogram.from_samples(rng.normal(2, 2, 300))
        assert wasserstein_distance(a, b) == pytest.approx(
            wasserstein_distance(b, a), rel=1e-9)


# -- the columnar fit against the per-sample loop oracle ---------------------

PARTITIONS = [
    ((0.0, 1440.0),),
    ((0.0, 480.0), (480.0, 1020.0), (1020.0, 1440.0)),
    # Gaps: minutes outside both go to the nearest midpoint, and one
    # interval is often empty, which brings in the pooled fallback.
    ((300.0, 420.0), (960.0, 1080.0)),
]


def random_trips(rng, n_trips):
    """Trips over a few short walks on four nodes.

    Walks revisit nodes, one-node paths occur, and trips repeat a walk,
    so sub-paths recur within and across trips.  Edge times are spread,
    constant or tied integers; departures cross midnight both ways.
    """
    walks = [
        [int(node) for node in rng.integers(0, 4, rng.integers(1, 8))]
        for _ in range(int(rng.integers(1, 5)))
    ]
    trips = []
    for _ in range(n_trips):
        walk = walks[int(rng.integers(len(walks)))]
        n_edges = len(walk) - 1
        kind = rng.integers(3)
        if kind == 0:
            times = rng.gamma(2.0, 40.0, n_edges)
        elif kind == 1:
            times = np.full(n_edges, 7.5)
        else:
            times = rng.integers(1, 4, n_edges).astype(float)
        departure = float(rng.choice(
            [0.0, 1439.5, 1440.0, -30.0, 2900.0, rng.uniform(0, 3000)]))
        trips.append((walk, list(times), departure))
    return trips


def assert_same_fit(fitted, expected):
    """Same keys in the same order, same intervals, and bit-identical
    histograms."""
    assert list(fitted) == list(expected)
    for key, reference in expected.items():
        distribution = fitted[key]
        assert distribution.intervals == reference.intervals
        for got, want in zip(distribution.distributions,
                             reference.distributions):
            assert (got.start, got.width) == (want.start, want.width)
            assert got.probabilities.tobytes() == \
                want.probabilities.tobytes()


class TestFitDifferential:
    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           intervals=st.sampled_from(PARTITIONS),
           n_bins=st.integers(1, 30),
           representation=st.sampled_from(["histogram", "gmm"]))
    def test_edge_model_equals_loop_fit(self, seed, intervals, n_bins,
                                        representation):
        rng = np.random.default_rng(seed)
        trips = random_trips(rng, int(rng.integers(1, 25)))
        options = dict(intervals=intervals, n_bins=n_bins,
                       representation=representation)
        model = EdgeCentricModel(**options).fit(trips)
        assert_same_fit(model._fitted, fit_edge_reference(trips, **options))

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           intervals=st.sampled_from(PARTITIONS),
           n_bins=st.integers(1, 30),
           representation=st.sampled_from(["histogram", "gmm"]),
           max_subpath_edges=st.integers(1, 7),
           min_support=st.integers(1, 8))
    def test_path_model_equals_loop_fit(self, seed, intervals, n_bins,
                                        representation, max_subpath_edges,
                                        min_support):
        rng = np.random.default_rng(seed)
        trips = random_trips(rng, int(rng.integers(1, 25)))
        options = dict(intervals=intervals, n_bins=n_bins,
                       representation=representation,
                       max_subpath_edges=max_subpath_edges,
                       min_support=min_support)
        model = PathCentricModel(**options).fit(trips)
        assert_same_fit(model._fitted, fit_path_reference(trips, **options))

    @pytest.mark.parametrize("representation", ["histogram", "gmm"])
    def test_min_support_boundary(self, representation):
        # (0, 1, 2) is traversed exactly 6 times, (0, 1, 3) 5 times.
        times = [4.0, 6.0]
        trips = [([0, 1, 2], times, 60.0 * k) for k in range(6)]
        trips += [([0, 1, 3], times, 60.0 * k) for k in range(5)]
        options = dict(min_support=6, representation=representation)
        model = PathCentricModel(**options).fit(trips)
        assert (0, 1, 2) in model._fitted
        assert (0, 1, 3) not in model._fitted
        assert_same_fit(model._fitted, fit_path_reference(trips, **options))

    def test_taxi_like_fit_equals_loop_fit(self, setup):
        _, _, _, trips = setup
        options = dict(min_support=10, max_subpath_edges=8)
        assert_same_fit(PathCentricModel(**options).fit(trips)._fitted,
                        fit_path_reference(trips, **options))
        assert_same_fit(EdgeCentricModel().fit(trips)._fitted,
                        fit_edge_reference(trips))

    @pytest.mark.parametrize("intervals", PARTITIONS)
    def test_interval_rule_equals_loop_rule(self, intervals):
        minutes = [-1440.0, -1e-20, -30.0, 0.0, 299.9, 300.0, 360.0, 420.0,
                   480.0, 690.0, 1020.0, 1439.999, 1440.0, 2880.0, 3001.0]
        minutes += [(a + b) / 2 + 720.0 for a, b in intervals]
        store = _SampleStore(intervals, 1, "histogram", 1)
        expected = [store.interval_index(minute) for minute in minutes]
        assert _interval_index(intervals, minutes).tolist() == expected


class TestGroupedHistograms:
    @staticmethod
    def assert_matches_from_samples(groups, n_bins):
        values = np.concatenate(groups)
        sizes = [len(group) for group in groups]
        try:
            expected = [Histogram.from_samples(group, n_bins=n_bins)
                        for group in groups]
        except ValueError as error:
            # A range too narrow for n_bins distinct edges (such as a
            # constant 2**21) or too wide for a float: the batch fails
            # with numpy's own error.
            with pytest.raises(ValueError, match=re.escape(str(error))):
                _grouped_histograms(values, sizes, n_bins)
            return
        histograms = _grouped_histograms(values, sizes, n_bins)
        assert len(histograms) == len(groups)
        for histogram, want in zip(histograms, expected):
            assert (histogram.start, histogram.width) == \
                (want.start, want.width)
            assert histogram.probabilities.tobytes() == \
                want.probabilities.tobytes()

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(groups=st.lists(
        st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1,
                 max_size=40),
        min_size=1, max_size=6),
        n_bins=st.integers(1, 40))
    def test_equals_from_samples(self, groups, n_bins):
        self.assert_matches_from_samples(
            [np.array(group) for group in groups], n_bins)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_bins=st.integers(1, 40))
    def test_values_on_bin_edges(self, seed, n_bins):
        rng = np.random.default_rng(seed)
        groups = []
        for _ in range(int(rng.integers(1, 5))):
            samples = np.round(rng.normal(20.0, 5.0, rng.integers(2, 30)),
                               int(rng.integers(0, 3)))
            # The interior edges of this group's own bins lie inside its
            # range, so adding them leaves the edges where they were.
            low, high = samples.min(), samples.max()
            if high == low:
                high = low + 1e-9
            pad = 1e-9 * (high - low)
            edges = np.histogram_bin_edges(
                samples, n_bins, range=(low - pad, high + pad))
            groups.append(np.concatenate([samples, edges[1:-1]]))
        self.assert_matches_from_samples(groups, n_bins)

    @pytest.mark.parametrize("group", [
        [5.0], [3.0, 3.0, 3.0], [1e12, 1e12], [0.0, 1e-320], [-2.0, 2.0],
        [1.0, 2.0, 2.0, 3.0, 3.0, 3.0], [-1e308, 1e308],
    ])
    def test_degenerate_groups(self, group):
        self.assert_matches_from_samples([np.array(group)] * 2, 25)


# -- fit replaces the model, atomically -------------------------------------

MODELS = [
    pytest.param(EdgeCentricModel, id="edge"),
    pytest.param(functools.partial(PathCentricModel, min_support=1),
                 id="path"),
]


def answers(model, paths):
    """Every path distribution the model gives, as exact bytes."""
    return [
        (d.start, d.width, d.probabilities.tobytes())
        for d in (model.path_distribution(path, 480.0) for path in paths)
    ]


class TestFitReplacesState:
    @pytest.mark.parametrize("model_class", MODELS)
    def test_refit_equals_fresh_fit(self, model_class):
        path = [0, 1, 2]
        model = model_class().fit([(path, [1.0, 2.0], 0.0)])
        model.fit([(path, [7.0, 7.0], 0.0)])
        fresh = model_class().fit([(path, [7.0, 7.0], 0.0)])
        assert model.path_distribution(path).mean() == pytest.approx(14.0)
        assert answers(model, [path]) == answers(fresh, [path])

    @pytest.mark.parametrize("model_class", MODELS)
    def test_failed_fit_changes_nothing(self, model_class, setup):
        _, _, paths, trips = setup
        model = model_class().fit(trips)
        before = answers(model, paths)
        other = (paths[0], [9.0] * (len(paths[0]) - 1), 480.0)
        bad = (paths[1], [1.0], 480.0)
        with pytest.raises(ValueError, match="trip 1"):
            model.fit([other, bad])
        assert answers(model, paths) == before
        # Nothing of the failed call's first trip leaks into a later fit.
        assert answers(model.fit(trips), paths) == \
            answers(model_class().fit(trips), paths)

    @pytest.mark.parametrize("model_class", MODELS)
    def test_fitted_model_keeps_no_samples(self, model_class, setup):
        # Four times the trips give the same distributions, so a model
        # that kept its samples would pickle four times larger.
        _, _, _, trips = setup
        once = pickle.dumps(model_class().fit(trips))
        four = pickle.dumps(model_class().fit(trips * 4))
        assert len(four) == len(once)

    @pytest.mark.parametrize("model_class", MODELS)
    @pytest.mark.parametrize("bad", [
        ([0, 1, 2], [1.0, float("nan")], 0.0),
        ([0, 1, 2], [float("inf"), 1.0], 0.0),
        ([0, 1, 2], [1.0, 1.0], float("nan")),
        ([0, 1, 2], [1.0, 1.0], float("-inf")),
    ], ids=["nan-time", "inf-time", "nan-departure", "inf-departure"])
    def test_non_finite_input_rejected(self, model_class, bad):
        good = ([0, 1, 2], [1.0, 2.0], 0.0)
        model = model_class().fit([good] * 5)
        before = answers(model, [[0, 1, 2]])
        with pytest.raises(ValueError, match="trip 2: .*finite"):
            model.fit([good, good, bad])
        assert answers(model, [[0, 1, 2]]) == before


def fitted_bytes(model):
    """Every (key, interval) histogram of a fitted model, as bytes."""
    return {
        key: [(d.start, d.width, d.probabilities.tobytes())
              for d in fitted.distributions]
        for key, fitted in model._fitted.items()
    }


#: Ways to spoil a trip ``(path, times, departure)``; the check that
#: catches each comes first in ``check_trips_reference``'s order.
SPOILERS = {
    "short": lambda p, t, d: (p, t[:-1] if t else [1.0], d),
    "nested": lambda p, t, d: (p, [t], d),
    "nan-time": lambda p, t, d: (p, [float("nan")] + t[1:] if t
                                 else t, float("nan")),
    "inf-time": lambda p, t, d: (p, t[:-1] + [float("inf")] if t
                                 else t, float("inf")),
    "nan-departure": lambda p, t, d: (p, t, float("nan")),
    "-inf-departure": lambda p, t, d: (p, t, float("-inf")),
    "text-departure": lambda p, t, d: (p, t, "soon"),
    "not-a-triple": lambda p, t, d: (p, t),
}


class TestFitValidation:
    """Grouped validation names the same first bad trip as checking
    trip by trip, and a failed fit leaves the model as it was."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           model_class=st.sampled_from([EdgeCentricModel,
                                        PathCentricModel]),
           data=st.data())
    def test_bad_trip_anywhere(self, seed, model_class, data):
        rng = np.random.default_rng(seed)
        trips = random_trips(rng, int(rng.integers(2, 20)))
        model = model_class(min_support=1) \
            if model_class is PathCentricModel else model_class()
        model.fit(trips)
        before = fitted_bytes(model)
        positions = data.draw(st.sets(st.integers(0, len(trips) - 1),
                                      min_size=1, max_size=3))
        for position in positions:
            spoiler = data.draw(st.sampled_from(sorted(SPOILERS)))
            trips[position] = SPOILERS[spoiler](*trips[position])
        with pytest.raises((ValueError, TypeError)) as expected:
            check_trips_reference(trips)
        with pytest.raises(expected.type) as got:
            model.fit(trips)
        assert str(got.value) == str(expected.value)
        assert fitted_bytes(model) == before

    def test_generator_of_trips(self):
        trips = [([0, 1, 2], [1.0, 2.0], 0.0)] * 3
        model = EdgeCentricModel().fit(trip for trip in trips)
        assert fitted_bytes(model) == \
            fitted_bytes(EdgeCentricModel().fit(trips))
        with pytest.raises(ValueError, match="at least one trip"):
            model.fit(iter(()))


class TestPickledModel:
    """A fitted model pickles as columns and restores bit for bit."""

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           intervals=st.sampled_from(PARTITIONS),
           n_bins=st.integers(1, 30),
           representation=st.sampled_from(["histogram", "gmm"]),
           path_centric=st.booleans())
    def test_round_trip_is_byte_identical(self, seed, intervals, n_bins,
                                          representation, path_centric):
        rng = np.random.default_rng(seed)
        trips = random_trips(rng, int(rng.integers(1, 25)))
        options = dict(intervals=intervals, n_bins=n_bins,
                       representation=representation)
        model = (PathCentricModel(min_support=2, **options) if path_centric
                 else EdgeCentricModel(**options)).fit(trips)
        restored = pickle.loads(pickle.dumps(model))
        assert type(restored) is type(model)
        assert_same_fit(restored._fitted, model._fitted)
        assert fitted_bytes(restored) == fitted_bytes(model)
        # One shared interval tuple, as a fresh fit holds.
        assert all(fitted.intervals is restored._intervals
                   for fitted in restored._fitted.values())
        assert {k: v for k, v in vars(restored).items() if k != "_fitted"} \
            == {k: v for k, v in vars(model).items() if k != "_fitted"}
        # The restored model refits like the original.
        assert fitted_bytes(restored.fit(trips)) == fitted_bytes(model)

    def test_unfitted_model_round_trips(self):
        model = pickle.loads(pickle.dumps(PathCentricModel()))
        assert model._fitted == {} and model.n_subpaths == 0
