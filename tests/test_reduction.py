"""Scenario reduction: exact-W1/DTW distances, forward selection and
the decision-layer wiring.

Every vectorized kernel is equivalence-gated against its kept
brute-force oracle (``wasserstein_pairwise``, the analytics
``dtw_distance``, ``reduce_reference``), and the degenerate ensemble
shapes production traffic produces — single candidate, all-identical,
zero-mass padding bins — go through ``dominance_prune`` /
``select_best`` / ``reduce_scenarios`` with the safety invariants:
output ⊆ input, probabilities sum to one, the optimum survives.
"""

import pickle

import numpy as np
import pytest

from repro import RoadNetwork
from repro.analytics.classification.distance import dtw_distance
from repro.datasets import TrafficSimulator
from repro.decision import (
    RiskAverseUtility,
    RiskNeutralUtility,
    StochasticRouter,
    dominance_prune,
    dtw_band_matrix,
    fan_chart,
    rank_plot,
    reduce_scenarios,
    select_best,
    stochastic_pareto_front,
    wasserstein_distance,
    wasserstein_matrix,
)
from repro.decision.utility import DeadlineUtility
from repro.governance.uncertainty import EdgeCentricModel, Histogram
from repro.observability.metrics import use_registry

from .oracles import reduce_reference, wasserstein_pairwise


def random_histogram(rng, *, zero_mass=0.0):
    probabilities = rng.random(int(rng.integers(2, 12)))
    if zero_mass:
        mask = rng.random(len(probabilities)) < zero_mass
        probabilities[mask] = 0.0
        if probabilities.sum() == 0:
            probabilities[0] = 1.0
    return Histogram(rng.uniform(0.0, 5.0), rng.uniform(0.1, 2.0),
                     probabilities)


def random_ensemble(rng, n, **kwargs):
    return [random_histogram(rng, **kwargs) for _ in range(n)]


class TestWassersteinDistance:
    def test_point_masses(self):
        a = Histogram.point_mass(3.0)
        b = Histogram.point_mass(7.5)
        assert wasserstein_distance(a, b) == pytest.approx(4.5)

    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        h = random_histogram(rng)
        assert wasserstein_distance(h, h) == 0.0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        a, b = random_histogram(rng), random_histogram(rng)
        base = wasserstein_distance(a, b)
        assert wasserstein_distance(a.shift(3.0), b.shift(3.0)) == \
            pytest.approx(base)
        # Shifting one histogram changes W1 by at most the shift.
        assert wasserstein_distance(a.shift(1.0), b) == \
            pytest.approx(base, abs=1.0 + 1e-9)

    def test_mean_difference_lower_bound(self):
        """W1 >= |E[X] - E[Y]| with equality for a pure shift."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = random_histogram(rng), random_histogram(rng)
            assert wasserstein_distance(a, b) >= \
                abs(a.mean() - b.mean()) - 1e-9
        h = random_histogram(rng)
        assert wasserstein_distance(h, h.shift(2.5)) == \
            pytest.approx(2.5)

    def test_metric_axioms(self):
        rng = np.random.default_rng(3)
        a, b, c = (random_histogram(rng) for _ in range(3))
        ab = wasserstein_distance(a, b)
        assert ab == pytest.approx(wasserstein_distance(b, a))
        assert ab >= 0.0
        assert ab <= wasserstein_distance(a, c) \
            + wasserstein_distance(c, b) + 1e-9

    def test_rejects_non_histograms(self):
        with pytest.raises(TypeError):
            wasserstein_distance(Histogram.point_mass(0.0), 1.0)


class TestWassersteinMatrix:
    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        ensemble = random_ensemble(rng, 25, zero_mass=0.3)
        np.testing.assert_allclose(wasserstein_matrix(ensemble),
                                   wasserstein_pairwise(ensemble),
                                   atol=1e-10)

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(5)
        matrix = wasserstein_matrix(random_ensemble(rng, 10))
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)

    def test_empty_and_single(self):
        assert wasserstein_matrix([]).shape == (0, 0)
        single = wasserstein_matrix([Histogram.point_mass(1.0)])
        np.testing.assert_allclose(single, [[0.0]])

    def test_rejects_non_histograms(self):
        with pytest.raises(TypeError):
            wasserstein_matrix([Histogram.point_mass(0.0), "no"])


class TestDtwBandMatrix:
    @pytest.mark.parametrize("band", [None, 2, 5])
    def test_matches_analytics_oracle(self, band):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 15))
        matrix = dtw_band_matrix(X, band=band)
        for i in range(8):
            for j in range(8):
                assert matrix[i, j] == pytest.approx(
                    dtw_distance(X[i], X[j], band=band), abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            dtw_band_matrix(np.zeros(5))
        with pytest.raises(ValueError):
            dtw_band_matrix(np.zeros((3, 0)))


class TestForwardSelection:
    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(4, 20))
            distance = np.abs(rng.normal(size=(n, n)))
            distance = distance + distance.T
            np.fill_diagonal(distance, 0.0)
            weights = rng.random(n)
            weights /= weights.sum()
            k = int(rng.integers(1, n))
            reduction = reduce_scenarios(
                list(range(n)), k, probabilities=weights,
                distance_matrix=distance)
            assert list(reduction.indices) == \
                sorted(reduce_reference(distance.tolist(),
                                        weights.tolist(), k))

    def test_invariants(self):
        rng = np.random.default_rng(8)
        ensemble = random_ensemble(rng, 30)
        reduction = reduce_scenarios(ensemble, 8)
        assert reduction.n_input == 30 and reduction.n_reduced == 8
        assert list(reduction.indices) == sorted(set(reduction.indices))
        assert set(reduction.indices) <= set(range(30))
        assert reduction.probabilities.sum() == pytest.approx(1.0)
        assert (reduction.probabilities > 0).all()
        assert reduction.distortion >= 0.0
        # members() partitions the input ensemble.
        members = sorted(
            index for position in range(reduction.n_reduced)
            for index in reduction.members(position))
        assert members == list(range(30))
        for index in range(30):
            assert reduction.representative_of(index) in \
                set(int(i) for i in reduction.indices)

    def test_distortion_decreases_with_k(self):
        rng = np.random.default_rng(9)
        ensemble = random_ensemble(rng, 25)
        distortions = [reduce_scenarios(ensemble, k).distortion
                       for k in (2, 5, 10, 25)]
        assert all(a >= b - 1e-12
                   for a, b in zip(distortions, distortions[1:]))
        assert distortions[-1] == 0.0  # identity reduction

    def test_identity_when_k_at_least_n(self):
        rng = np.random.default_rng(10)
        ensemble = random_ensemble(rng, 5)
        reduction = reduce_scenarios(ensemble, 9)
        assert list(reduction.indices) == list(range(5))
        assert reduction.distortion == 0.0
        np.testing.assert_allclose(reduction.probabilities, 0.2)

    def test_trajectory_metrics(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 10))
        for metric, band in (("dtw", 3), ("euclidean", None)):
            reduction = reduce_scenarios(X, 4, metric=metric,
                                         band=band)
            assert reduction.n_reduced == 4
            assert reduction.probabilities.sum() == pytest.approx(1.0)

    def test_export_round_trips_through_json(self):
        import json

        rng = np.random.default_rng(12)
        reduction = reduce_scenarios(random_ensemble(rng, 10), 3)
        exported = json.loads(json.dumps(reduction.export()))
        assert exported["n_input"] == 10
        assert exported["n_reduced"] == 3
        assert len(exported["assignment"]) == 10
        assert sum(exported["probabilities"]) == pytest.approx(1.0)

    def test_validation(self):
        rng = np.random.default_rng(13)
        ensemble = random_ensemble(rng, 4)
        with pytest.raises(ValueError):
            reduce_scenarios([], 2)
        with pytest.raises(ValueError):
            reduce_scenarios(ensemble, 0)
        with pytest.raises(ValueError):
            reduce_scenarios(ensemble, 2, probabilities=[0.5, 0.5])
        with pytest.raises(ValueError):
            reduce_scenarios(ensemble, 2,
                             distance_matrix=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            reduce_scenarios(ensemble, 2, metric="mahalanobis")

    def test_publishes_metrics(self):
        rng = np.random.default_rng(14)
        with use_registry() as registry:
            reduce_scenarios(random_ensemble(rng, 20), 5)
            counter = registry.get(
                "decision.reduction_scenarios_total")
            assert counter.value(direction="in") == 20
            assert counter.value(direction="out") == 5
            snapshot = registry.snapshot()
            series = snapshot["decision.reduction_distortion"]["series"]
            assert series[0]["count"] == 1


class TestHistogramHelpers:
    def test_atoms_drop_zero_mass(self):
        h = Histogram(0.0, 1.0, [0.0, 0.5, 0.0, 0.5, 0.0])
        values, probabilities = h.atoms()
        np.testing.assert_allclose(values, [1.0, 3.0])
        np.testing.assert_allclose(probabilities, [0.5, 0.5])

    def test_trimmed_keeps_interior_zeros(self):
        h = Histogram(0.0, 1.0, [0.0, 0.5, 0.0, 0.5, 0.0])
        trimmed = h.trimmed()
        assert trimmed.start == 1.0
        np.testing.assert_allclose(trimmed.probabilities,
                                   [0.5, 0.0, 0.5])
        assert trimmed.mean() == pytest.approx(h.mean())

    def test_trimmed_identity_without_padding(self):
        h = Histogram(0.0, 1.0, [0.5, 0.5])
        assert h.trimmed() is h


class TestDecisionWiring:
    def test_reduce_to_prune_is_subset_of_representatives(self):
        rng = np.random.default_rng(15)
        ensemble = random_ensemble(rng, 60)
        reduction = reduce_scenarios(ensemble, 10)
        survivors = dominance_prune(ensemble, reduction=reduction)
        assert set(survivors) <= set(int(i) for i in reduction.indices)
        assert survivors == sorted(survivors)
        fresh = dominance_prune(ensemble, reduce_to=10)
        assert set(fresh) <= set(range(60))

    def test_select_best_zero_regret_with_refinement(self):
        rng = np.random.default_rng(16)
        for utility, unique_argmax in (
                (RiskNeutralUtility(), True),
                (RiskAverseUtility(aversion=0.4, scale=10.0), True),
                (DeadlineUtility(6.0), False)):
            ensemble = random_ensemble(rng, 120)
            full_index, full_value, _ = select_best(ensemble, utility)
            reduced_index, reduced_value, n_evaluated = select_best(
                ensemble, utility, reduce_to=15)
            # Zero utility regret always; the index matches whenever
            # the optimum is unique (step utilities like
            # DeadlineUtility produce exact ties, where any
            # co-optimal candidate is a correct answer).
            assert reduced_value == pytest.approx(full_value)
            if unique_argmax:
                assert reduced_index == full_index
            assert n_evaluated < 120

    def test_reduction_size_mismatch_raises(self):
        rng = np.random.default_rng(17)
        ensemble = random_ensemble(rng, 10)
        reduction = reduce_scenarios(ensemble, 3)
        with pytest.raises(ValueError):
            dominance_prune(ensemble[:5], reduction=reduction)

    def test_degenerate_single_candidate(self):
        only = Histogram(0.0, 1.0, [0.3, 0.7])
        assert dominance_prune([only], reduce_to=5) == [0]
        index, _, _ = select_best([only], RiskNeutralUtility(),
                                  reduce_to=5)
        assert index == 0
        reduction = reduce_scenarios([only], 1)
        assert list(reduction.indices) == [0]
        assert reduction.probabilities.sum() == pytest.approx(1.0)

    def test_degenerate_all_identical(self):
        same = [Histogram(0.0, 1.0, [0.5, 0.5]) for _ in range(8)]
        survivors = dominance_prune(same, reduce_to=3)
        assert set(survivors) <= set(range(8)) and survivors
        index, value, _ = select_best(same, RiskNeutralUtility(),
                                      reduce_to=3)
        assert index in range(8)
        assert value == pytest.approx(-1.0 * same[0].mean())
        reduction = reduce_scenarios(same, 3)
        # All pairwise distances are zero: forward selection stops at
        # the first pick and the survivor carries all the mass.
        assert reduction.n_reduced == 1
        assert reduction.probabilities.sum() == pytest.approx(1.0)
        assert reduction.distortion == 0.0

    def test_degenerate_zero_mass_bins(self):
        rng = np.random.default_rng(18)
        ensemble = random_ensemble(rng, 40, zero_mass=0.5)
        utility = RiskNeutralUtility()
        full_index, full_value, _ = select_best(ensemble, utility)
        reduced_index, reduced_value, _ = select_best(
            ensemble, utility, reduce_to=8)
        assert reduced_index == full_index
        assert reduced_value == pytest.approx(full_value)
        reduction = reduce_scenarios(ensemble, 8)
        assert set(int(i) for i in reduction.indices) <= set(range(40))
        assert reduction.probabilities.sum() == pytest.approx(1.0)


class TestStochasticParetoFront:
    def test_dominated_option_removed(self):
        fast_cheap = (Histogram.point_mass(1.0),
                      Histogram.point_mass(1.0))
        slow_dear = (Histogram.point_mass(3.0),
                     Histogram.point_mass(4.0))
        fast_dear = (Histogram.point_mass(1.0),
                     Histogram.point_mass(4.0))
        front = stochastic_pareto_front(
            [fast_cheap, slow_dear, fast_dear])
        assert front == [0]

    def test_tradeoff_options_all_survive(self):
        a = (Histogram.point_mass(1.0), Histogram.point_mass(4.0))
        b = (Histogram.point_mass(4.0), Histogram.point_mass(1.0))
        assert stochastic_pareto_front([a, b]) == [0, 1]

    def test_matches_scalar_pareto_on_point_masses(self):
        from repro.decision import pareto_front

        rng = np.random.default_rng(19)
        costs = rng.uniform(0.0, 5.0, size=(15, 2))
        options = [
            (Histogram.point_mass(row[0]),
             Histogram.point_mass(row[1]))
            for row in costs
        ]
        assert stochastic_pareto_front(options) == pareto_front(costs)

    def test_reduce_to_returns_representative_subset(self):
        rng = np.random.default_rng(20)
        options = [
            (random_histogram(rng), random_histogram(rng))
            for _ in range(30)
        ]
        front = stochastic_pareto_front(options, reduce_to=8)
        assert set(front) <= set(range(30))
        assert len(front) <= 8

    def test_validation(self):
        assert stochastic_pareto_front([]) == []
        with pytest.raises(ValueError):
            stochastic_pareto_front([()])
        with pytest.raises(TypeError):
            stochastic_pareto_front([(1.0,)])
        with pytest.raises(ValueError):
            stochastic_pareto_front(
                [(Histogram.point_mass(0.0),),
                 (Histogram.point_mass(0.0),
                  Histogram.point_mass(1.0))])


@pytest.fixture(scope="module")
def routed_world():
    network = RoadNetwork.grid(5, 5)
    simulator = TrafficSimulator(network,
                                 rng=np.random.default_rng(21))
    od_pairs = [((0, 0), (4, 4)), ((0, 4), (4, 0))]
    rng = np.random.default_rng(22)
    trips = []
    for origin, destination in od_pairs:
        for path in network.k_shortest_paths(origin, destination, 8):
            edges = network.path_edges(path)
            for _ in range(15):
                trips.append((path,
                              simulator.sample_edge_times(edges, 480,
                                                          rng=rng),
                              480.0))
    model = EdgeCentricModel(n_bins=25).fit(trips)
    return network, model, od_pairs


class TestRouterReduction:
    def test_reduced_router_matches_full_router(self, routed_world):
        network, model, od_pairs = routed_world
        utility = DeadlineUtility(12.0)
        queries = [(origin, destination, 480.0)
                   for origin, destination in od_pairs]
        full = StochasticRouter(network, model, n_candidates=8)
        reduced = StochasticRouter(network, model, n_candidates=8,
                                   reduction=3)
        for want, got in zip(full.route_many(queries, utility),
                             reduced.route_many(queries, utility)):
            if want is None:
                assert got is None
                continue
            assert got[0] == want[0]
            assert got[2] == want[2]

    def test_reduction_memo_reused_across_queries(self, routed_world):
        network, model, od_pairs = routed_world
        router = StochasticRouter(network, model, n_candidates=8,
                                  reduction=3)
        origin, destination = od_pairs[0]
        router.best_path(origin, destination, DeadlineUtility(12.0),
                         departure_minute=480.0)
        assert router.cache_info()["reduction_memo_size"] == 1
        # Same departure window: the memoized reduction is reused.
        router.best_path(origin, destination, DeadlineUtility(9.0),
                         departure_minute=481.0)
        assert router.cache_info()["reduction_memo_size"] == 1
        router.clear_cache()
        assert router.cache_info()["reduction_memo_size"] == 0

    def test_reduced_router_pickles_without_memos(self, routed_world):
        network, model, od_pairs = routed_world
        router = StochasticRouter(network, model, n_candidates=8,
                                  reduction=3)
        origin, destination = od_pairs[0]
        router.best_path(origin, destination, DeadlineUtility(12.0),
                         departure_minute=480.0)
        clone = pickle.loads(pickle.dumps(router))
        assert clone.reduction == 3
        assert clone.cache_info()["reduction_memo_size"] == 0
        want = router.best_path(origin, destination,
                                DeadlineUtility(12.0),
                                departure_minute=480.0)
        got = clone.best_path(origin, destination,
                              DeadlineUtility(12.0),
                              departure_minute=480.0)
        assert got[0] == want[0] and got[2] == want[2]

    def test_invalid_reduction_config_raises(self, routed_world):
        network, model, _ = routed_world
        with pytest.raises(ValueError):
            StochasticRouter(network, model, reduction=0)


class TestFanChart:
    def test_bands_and_mean(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(20, 12))
        chart = fan_chart(X)
        assert chart["n_scenarios"] == 20
        assert set(chart["bands"]) == \
            {"0.05", "0.25", "0.5", "0.75", "0.95"}
        np.testing.assert_allclose(chart["mean"], X.mean(axis=0))
        lower = np.asarray(chart["bands"]["0.25"])
        upper = np.asarray(chart["bands"]["0.75"])
        assert (lower <= upper).all()

    def test_weighted_bands_follow_reduction(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(30, 8))
        reduction = reduce_scenarios(X, 6, metric="euclidean")
        chart = fan_chart(X[reduction.indices],
                          probabilities=reduction.probabilities)
        assert chart["n_scenarios"] == 6
        # A probability-1 scenario pins every band to its trajectory.
        point = fan_chart(X[:1], probabilities=[1.0])
        for band in point["bands"].values():
            np.testing.assert_allclose(band, X[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            fan_chart(np.zeros(4))
        with pytest.raises(ValueError):
            fan_chart(np.zeros((3, 4)), quantiles=(1.5,))
        with pytest.raises(ValueError):
            fan_chart(np.zeros((3, 4)), probabilities=[0.5, 0.5])


class TestRankPlot:
    def test_ranks_are_permutations_per_step(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(9, 7))
        plot = rank_plot(X)
        ranks = np.asarray(plot["ranks"])
        assert ranks.shape == (9, 7)
        for column in ranks.T:
            assert sorted(column) == list(range(9))
        assert sorted(plot["order"]) == list(range(9))

    def test_uniformly_dominant_scenario_ranks_first(self):
        base = np.tile(np.arange(5.0), (4, 1))
        X = base + np.arange(4)[:, None]  # row 0 smallest everywhere
        plot = rank_plot(X)
        assert plot["order"][0] == 0
        assert plot["ranks"][0] == [0] * 5
