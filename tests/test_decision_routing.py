"""Tests for stochastic routing, skylines, preferences, imitation."""

import numpy as np
import pytest

from repro import DecisionServer, RoadNetwork
from repro.datasets import TrafficSimulator
from repro.governance.uncertainty import EdgeCentricModel, PathCentricModel
from repro.decision import (
    ContextualPreferenceModel,
    DeadlineUtility,
    ImitationRouter,
    RiskAverseUtility,
    SkylineRouter,
    StochasticRouter,
    dominates,
    pareto_front,
    scalarize,
)
from repro.serve import RouteQuery


@pytest.fixture(scope="module")
def routing_setup():
    network = RoadNetwork.grid(6, 6)
    simulator = TrafficSimulator(
        network, sigma_correlated=0.35, sigma_independent=0.12,
        rng=np.random.default_rng(1))
    origin, destination = (0, 0), (5, 5)
    candidates = network.k_shortest_paths(origin, destination, 8)
    rng = np.random.default_rng(2)
    trips = []
    for _ in range(100):
        for path in candidates:
            edges = network.path_edges(path)
            times = simulator.sample_edge_times(edges,
                                                departure_minute=480,
                                                rng=rng)
            trips.append((path, times, 480.0))
    model = PathCentricModel(min_support=10,
                             max_subpath_edges=10).fit(trips)
    return network, simulator, model, origin, destination


class TestStochasticRouter:
    def test_best_path_returns_candidate(self, routing_setup):
        network, _, model, origin, destination = routing_setup
        router = StochasticRouter(network, model, n_candidates=8)
        path, distribution, utility = router.best_path(
            origin, destination, RiskAverseUtility(scale=20.0),
            departure_minute=480)
        assert path[0] == origin and path[-1] == destination
        assert distribution.mean() > 0

    def test_on_time_probability_calibrated(self, routing_setup):
        network, simulator, model, origin, destination = routing_setup
        router = StochasticRouter(network, model, n_candidates=8)
        _, mean_dist = router.mean_cost_route(origin, destination,
                                              departure_minute=480)
        deadline = mean_dist.quantile(0.8)
        path, probability = router.on_time_route(
            origin, destination, deadline, departure_minute=480)
        empirical = (simulator.sample_path_times(
            path, 800, departure_minute=480,
            rng=np.random.default_rng(3)) <= deadline).mean()
        assert probability == pytest.approx(empirical, abs=0.12)

    def test_deadline_shifts_choice_toward_reliability(self,
                                                       routing_setup):
        """The arrival-window phenomenon of [53]: the optimal path
        depends on the deadline."""
        network, _, model, origin, destination = routing_setup
        router = StochasticRouter(network, model, n_candidates=8)
        deadlines = np.linspace(10.0, 60.0, 12)
        results, paths = router.arrival_windows(
            origin, destination, deadlines, departure_minute=480)
        assert len(results) == 12
        probabilities = [p for _, _, p in results]
        assert np.all(np.diff(probabilities) >= -1e-9)  # monotone in dl

    def test_best_departure_prefers_offpeak(self, routing_setup):
        """With time-varying costs, leaving off-peak beats leaving into
        the rush for the same travel budget ([51])."""
        network, simulator, _, origin, destination = routing_setup
        # Fit a model covering two departure regimes: 3am (free flow)
        # and 8am (rush).
        candidates = network.k_shortest_paths(origin, destination, 4)
        rng = np.random.default_rng(40)
        trips = []
        for departure in (180.0, 480.0):
            for _ in range(60):
                for path in candidates:
                    edges = network.path_edges(path)
                    times = simulator.sample_edge_times(
                        edges, departure, rng=rng)
                    trips.append((path, times, departure))
        model = PathCentricModel(
            min_support=10, max_subpath_edges=10,
            intervals=((0, 360), (360, 1440))).fit(trips)
        router = StochasticRouter(network, model, n_candidates=4)
        budget = model.path_distribution(
            candidates[0], 180).quantile(0.7)
        departure, path, probability = router.best_departure(
            origin, destination, budget, [180.0, 480.0])
        assert departure == 180.0  # off-peak wins
        assert probability > 0.5

    def test_best_departure_no_candidates(self, routing_setup):
        network, _, model, origin, destination = routing_setup
        router = StochasticRouter(network, model)
        with pytest.raises(ValueError):
            router.best_departure(origin, destination, 10.0, [])

    def test_rejects_bad_cost_model(self, routing_setup):
        network = routing_setup[0]
        with pytest.raises(TypeError):
            StochasticRouter(network, object())

    def test_rejects_bad_utility(self, routing_setup):
        network, _, model, origin, destination = routing_setup
        router = StochasticRouter(network, model)
        with pytest.raises(TypeError):
            router.best_path(origin, destination, lambda c: -c)


class TestPareto:
    def test_dominates_basics(self):
        assert dominates([1.0, 1.0], [2.0, 2.0])
        assert not dominates([1.0, 3.0], [2.0, 2.0])
        assert not dominates([1.0, 1.0], [1.0, 1.0])

    def test_pareto_front_known(self):
        costs = np.array([
            [1.0, 5.0],   # frontier
            [3.0, 3.0],   # frontier
            [5.0, 1.0],   # frontier
            [4.0, 4.0],   # dominated by (3,3)
            [6.0, 6.0],   # dominated
        ])
        assert pareto_front(costs) == [0, 1, 2]

    def test_scalarize_picks_weighted_best(self):
        costs = np.array([[1.0, 10.0], [10.0, 1.0]])
        assert scalarize(costs, [0.9, 0.1]) == 0
        assert scalarize(costs, [0.1, 0.9]) == 1

    def test_skyline_routes_mutually_nondominated(self):
        network = RoadNetwork.grid(5, 5)
        rng = np.random.default_rng(4)
        for u, v in network.edges():
            length = network.edge_length(u, v)
            network.set_edge_attribute(u, v, "time",
                                       length * rng.uniform(0.5, 2.0))
            network.set_edge_attribute(u, v, "energy",
                                       length * rng.uniform(0.5, 2.0))
        router = SkylineRouter(network, ["time", "energy"])
        skyline = router.skyline((0, 0), (3, 3))
        assert skyline
        costs = np.array([cost for _, cost in skyline])
        assert len(pareto_front(costs)) == len(skyline)
        for path, _ in skyline:
            assert path[0] == (0, 0) and path[-1] == (3, 3)

    def test_skyline_contains_both_extremes(self):
        network = RoadNetwork.grid(4, 4)
        rng = np.random.default_rng(5)
        for u, v in network.edges():
            length = network.edge_length(u, v)
            network.set_edge_attribute(u, v, "time",
                                       length * rng.uniform(0.3, 3.0))
            network.set_edge_attribute(u, v, "energy",
                                       length * rng.uniform(0.3, 3.0))
        router = SkylineRouter(network, ["time", "energy"])
        skyline = router.skyline((0, 0), (3, 3))
        costs = np.array([cost for _, cost in skyline])
        import networkx as nx

        best_time = nx.dijkstra_path_length(
            network.graph, (0, 0), (3, 3), weight="time")
        assert costs[:, 0].min() == pytest.approx(best_time, rel=1e-9)

    def test_skyline_validation(self):
        network = RoadNetwork.grid(3, 3)
        with pytest.raises(ValueError):
            SkylineRouter(network, ["time"])
        router = SkylineRouter(network, ["time", "energy"])
        with pytest.raises(ValueError):
            router.skyline((0, 0), (0, 0))


class TestPreference:
    def test_recovers_context_weights(self):
        model = ContextualPreferenceModel(3)
        rng = np.random.default_rng(6)
        truth = {"peak": np.array([0.7, 0.2, 0.1]),
                 "offpeak": np.array([0.1, 0.2, 0.7])}
        for context, weights in truth.items():
            for _ in range(40):
                options = rng.uniform(0, 1, size=(5, 3))
                chosen = int(np.argmin(options @ weights))
                model.observe(
                    context, options[chosen],
                    [options[i] for i in range(5) if i != chosen])
        model.fit()
        for context, weights in truth.items():
            learned = model.weights(context)
            assert np.argmax(learned) == np.argmax(weights)
            assert learned.sum() == pytest.approx(1.0)

    def test_agreement_on_heldout_choices(self):
        model = ContextualPreferenceModel(2)
        rng = np.random.default_rng(7)
        weights = np.array([0.8, 0.2])
        for _ in range(50):
            options = rng.uniform(0, 1, size=(4, 2))
            chosen = int(np.argmin(options @ weights))
            model.observe("ctx", options[chosen],
                          [options[i] for i in range(4) if i != chosen])
        model.fit()
        heldout = []
        for _ in range(50):
            options = rng.uniform(0, 1, size=(4, 2))
            heldout.append((int(np.argmin(options @ weights)), options))
        assert model.agreement("ctx", heldout) > 0.85

    def test_unknown_context(self):
        model = ContextualPreferenceModel(2)
        with pytest.raises(KeyError):
            model.weights("nowhere")

    def test_fit_without_observations(self):
        with pytest.raises(RuntimeError):
            ContextualPreferenceModel(2).fit()

    def test_observation_validation(self):
        model = ContextualPreferenceModel(2)
        with pytest.raises(ValueError):
            model.observe("ctx", [1.0, 2.0, 3.0], [])


class TestImitation:
    @pytest.fixture(scope="class")
    def biased_experts(self):
        """Experts avoid the congested city center, so their routes
        systematically differ from shortest paths."""
        import networkx as nx

        network = RoadNetwork.grid(7, 7)
        rng = np.random.default_rng(8)

        def expert_cost(u, v):
            (x1, y1), (x2, y2) = network.edge_endpoints(u, v)
            mid_x, mid_y = (x1 + x2) / 2, (y1 + y2) / 2
            central = np.exp(-((mid_x - 3) ** 2 + (mid_y - 3) ** 2) / 4.0)
            return network.edge_length(u, v) * (1 + 2.0 * central)

        paths = []
        nodes = network.nodes()
        while len(paths) < 60:
            a, b = rng.choice(len(nodes), 2, replace=False)
            a, b = nodes[int(a)], nodes[int(b)]
            noise = float(rng.uniform(0.95, 1.05))
            path = nx.dijkstra_path(
                network.graph, a, b,
                weight=lambda u, v, data: expert_cost(u, v) * noise)
            if len(path) >= 6:
                paths.append(path)
        return network, paths

    def test_imitation_beats_shortest_path(self, biased_experts):
        """E22's claim: routes learned from expert trajectories match
        expert behaviour better than plain shortest paths."""
        network, paths = biased_experts
        router = ImitationRouter(network).fit(paths[:45])
        test = paths[45:]
        imitation = router.imitation_score(test)
        shortest = np.mean([
            1.0 - network.route_distance(
                p, network.shortest_path(p[0], p[-1]))
            for p in test
        ])
        assert imitation > shortest

    def test_popular_unavoided_edges_cheaper(self, biased_experts):
        network, paths = biased_experts
        router = ImitationRouter(network).fit(paths)
        # A popular, non-avoided edge should cost less than its length.
        best = None
        for u, v in network.edges():
            if router.edge_avoidance(u, v) <= 0 and \
                    router.edge_popularity(u, v) > 0.3:
                best = (u, v)
                break
        assert best is not None
        assert router.routing_cost(*best) < network.edge_length(*best)

    def test_avoided_edges_penalized(self, biased_experts):
        network, paths = biased_experts
        router = ImitationRouter(network,
                                 popularity_bonus=0.0).fit(paths)
        avoided = max(network.edges(),
                      key=lambda e: router.edge_avoidance(*e))
        assert router.routing_cost(*avoided) > \
            network.edge_length(*avoided)

    def test_smoothing_extends_coverage(self, biased_experts):
        network, paths = biased_experts
        smoothed = ImitationRouter(network, smooth=True).fit(paths[:5])
        raw = ImitationRouter(network, smooth=False).fit(paths[:5])
        assert smoothed.popularity_coverage() > raw.popularity_coverage()

    def test_requires_fit(self, biased_experts):
        network, _ = biased_experts
        with pytest.raises(RuntimeError):
            ImitationRouter(network).route((0, 0), (1, 1))

    def test_empty_experts(self, biased_experts):
        network, _ = biased_experts
        with pytest.raises(ValueError):
            ImitationRouter(network).fit([])


@pytest.fixture(scope="module")
def one_way_setup():
    """A one-way grid: (5, 5) is reachable from (0, 0), not back."""
    network = RoadNetwork.grid(6, 6, bidirectional=False)
    simulator = TrafficSimulator(network, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    trips = []
    for path in network.k_shortest_paths((0, 0), (5, 5), 4):
        edges = network.path_edges(path)
        for _ in range(25):
            trips.append((path, simulator.sample_edge_times(
                edges, departure_minute=480, rng=rng), 480.0))
    return network, EdgeCentricModel(n_bins=30).fit(trips)


#: Routable, unreachable, unknown origin, unknown destination, routable.
ONE_WAY_QUERIES = [((0, 0), (5, 5), 480.0), ((5, 5), (0, 0), 480.0),
                   ((9, 9), (0, 0), 480.0), ((0, 0), (9, 9), 480.0),
                   ((0, 0), (4, 5), 480.0)]


class TestUnroutableQueries:
    def test_path_searches_raise_typed_errors(self, one_way_setup):
        network, _ = one_way_setup
        for search in (network.shortest_path,
                       network.shortest_path_length,
                       lambda s, t: network.k_shortest_paths(s, t, 3)):
            with pytest.raises(ValueError):
                search((5, 5), (0, 0))
            with pytest.raises(KeyError):
                search((9, 9), (0, 0))
            with pytest.raises(KeyError):
                search((0, 0), (9, 9))

    def test_bad_query_yields_none_and_spares_the_batch(
            self, one_way_setup):
        network, model = one_way_setup
        utility = DeadlineUtility(12.0)
        results = StochasticRouter(network, model, n_candidates=4) \
            .route_many(ONE_WAY_QUERIES, utility)
        assert results[1:4] == [None, None, None]
        for index in (0, 4):
            origin, destination, minute = ONE_WAY_QUERIES[index]
            path, distribution, value = StochasticRouter(
                network, model, n_candidates=4).best_path(
                    origin, destination, utility,
                    departure_minute=minute)
            assert results[index][0] == path
            np.testing.assert_array_equal(results[index][1].support,
                                          distribution.support)
            np.testing.assert_array_equal(
                results[index][1].probabilities,
                distribution.probabilities)
            assert results[index][2] == value

    def test_served_batch_resolves_every_member(self, one_way_setup):
        network, model = one_way_setup
        utility = DeadlineUtility(12.0)
        oracle = StochasticRouter(network, model, n_candidates=4)
        expected = oracle.route_many(ONE_WAY_QUERIES, utility)
        router = StochasticRouter(network, model, n_candidates=4)
        # The batch closes on size: all five members share one call.
        with DecisionServer(router=router, utility=utility,
                            batch_window=30.0,
                            max_batch=len(ONE_WAY_QUERIES)) as server:
            futures = [server.submit(RouteQuery(*query))
                       for query in ONE_WAY_QUERIES]
            results = [future.result() for future in futures]
        assert [result.outcome for result in results] == ["ok"] * 5
        assert [result.batch_size for result in results] == [5] * 5
        assert [result.value is None for result in results] == \
            [want is None for want in expected]
        for result, want in zip(results, expected):
            if want is not None:
                assert result.value[0] == want[0]
                assert result.value[2] == want[2]
