"""Tests for stochastic routing, skylines, preferences, imitation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.observability.metrics import use_registry
from repro.serve import RouteQuery

from .oracles import skyline_reference


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

    def test_every_query_publishes_its_memo_lookups(self,
                                                    routing_setup):
        """Each public query flushes its lookups itself (returning or
        raising), so the counter equals ``cache_info()`` before any
        ``cache_info()`` or ``best_path`` call flushes them."""
        network, _, model, origin, destination = routing_setup
        queries = [
            lambda router: router.mean_cost_route(
                origin, destination, departure_minute=480),
            lambda router: router.arrival_windows(
                origin, destination, [20.0, 30.0], departure_minute=480),
            lambda router: router.candidate_paths(origin, destination),
            lambda router: router.candidate_distributions(
                origin, destination, 480),
            lambda router: router.candidate_paths(origin, (9, 9)),
        ]
        with use_registry() as registry:
            router = StochasticRouter(network, model, n_candidates=4)
            for query in queries:
                try:
                    query(router)
                except KeyError:
                    pass
                counter = registry.get(
                    "decision.router_memo_lookups_total")
                published = (counter.value(outcome="hit"),
                             counter.value(outcome="miss"))
                info = router.cache_info()
                assert published == (info["hits"], info["misses"])
            assert info["hits"] > 0 and info["misses"] > 0

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


OBJECTIVES = ["a", "b", "c"]


def costed_grid(rows, cols, values):
    """A grid whose edges take objective costs from ``values`` in
    ``edges()`` order, objective by objective within each edge."""
    network = RoadNetwork.grid(rows, cols)
    values = iter(values)
    for u, v in network.edges():
        for name in OBJECTIVES:
            network.set_edge_attribute(u, v, name, next(values))
    return network


def n_costs(rows, cols):
    """How many values :func:`costed_grid` takes."""
    return 2 * (rows * (cols - 1) + cols * (rows - 1)) * len(OBJECTIVES)


def uniform_grid(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return costed_grid(rows, cols,
                       rng.uniform(0.1, 3.0, n_costs(rows, cols)).tolist())


def path_cost(network, path, objectives):
    """The cost a label accumulates along ``path``: edge costs added
    left to right from zero."""
    total = [0.0] * len(objectives)
    for u, v in zip(path, path[1:]):
        for index, name in enumerate(objectives):
            total[index] += network.edge_attribute(u, v, name)
    return total


@st.composite
def skyline_cases(draw, values):
    """A grid, its objectives and an origin-destination pair."""
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    objectives = OBJECTIVES[:draw(st.integers(2, 3))]
    network = costed_grid(rows, cols, draw(values(n_costs(rows, cols))))
    nodes = network.nodes()
    origin, destination = draw(st.lists(
        st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    return network, objectives, origin, destination


def tied_values(n):
    """Quarter-integer costs in [0, 4]: exact sums, ties and zeros."""
    return st.lists(st.integers(0, 16).map(lambda k: k / 4),
                    min_size=n, max_size=n)


def uniform_values(n):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: np.random.default_rng(seed).uniform(0.0, 3.0, n)
        .tolist())


class TestSkylineSearch:
    """``SkylineRouter.skyline`` on float-tuple labels: the numpy-label
    search's output where the cap never binds, termination where it
    does, and typed errors."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(case=st.one_of(skyline_cases(tied_values),
                          skyline_cases(uniform_values)))
    def test_matches_reference_when_the_cap_never_binds(self, case):
        network, objectives, origin, destination = case
        got = SkylineRouter(network, objectives, max_labels=10**6) \
            .skyline(origin, destination)
        want = skyline_reference(network, objectives, origin,
                                 destination, max_labels=10**6)
        assert [(path, cost.dtype, cost.tobytes()) for path, cost in got] \
            == [(path, cost.dtype, cost.tobytes()) for path, cost in want]

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(case=skyline_cases(tied_values),
           max_labels=st.integers(1, 4))
    def test_capped_search_ends_with_a_valid_skyline(self, case,
                                                     max_labels):
        network, objectives, origin, destination = case
        skyline = SkylineRouter(network, objectives,
                                max_labels=max_labels) \
            .skyline(origin, destination)
        assert 1 <= len(skyline) <= max_labels
        costs = np.array([cost for _, cost in skyline])
        assert pareto_front(costs) == list(range(len(skyline)))
        for path, cost in skyline:
            assert path[0] == origin and path[-1] == destination
            assert len(set(path)) == len(path)
            network.path_edges(path)  # every hop is an edge
            assert cost.tolist() == path_cost(network, path, objectives)

    def test_binding_cap_terminates(self):
        """A candidate admitted and then cut by the cap used to re-queue
        its node forever; this case never returned."""
        network = uniform_grid(3, 2, seed=3)
        skyline = SkylineRouter(network, OBJECTIVES, max_labels=1) \
            .skyline((0, 0), (2, 1))
        path = [(0, 0), (0, 1), (1, 1), (2, 1)]
        assert [p for p, _ in skyline] == [path]
        assert skyline[0][1].tolist() == path_cost(network, path,
                                                   OBJECTIVES)

    @pytest.mark.parametrize("seed", [8, 11, 25, 27])
    def test_other_binding_caps_terminate(self, seed):
        network = uniform_grid(3, 2, seed=seed)
        skyline = SkylineRouter(network, OBJECTIVES, max_labels=1) \
            .skyline((0, 0), (2, 1))
        assert len(skyline) == 1
        assert skyline[0][0][0] == (0, 0)
        assert skyline[0][0][-1] == (2, 1)

    def test_unknown_origin_raises_key_error(self):
        router = SkylineRouter(uniform_grid(2, 2, seed=0), ["a", "b"])
        with pytest.raises(KeyError, match=r"\(9, 9\)"):
            router.skyline((9, 9), (1, 1))

    def test_unknown_destination_raises_key_error(self):
        router = SkylineRouter(uniform_grid(2, 2, seed=0), ["a", "b"])
        with pytest.raises(KeyError, match=r"\(9, 9\)"):
            router.skyline((0, 0), (9, 9))

    def test_edge_without_an_objective_raises_key_error(self):
        graph = uniform_grid(2, 2, seed=0).graph.copy()
        graph.edges[(0, 1), (1, 1)].pop("b")
        router = SkylineRouter(RoadNetwork(graph), ["a", "b"])
        with pytest.raises(KeyError,
                           match=r"\(\(0, 1\), \(1, 1\)\).*'b'"):
            router.skyline((0, 0), (1, 1))

    def test_successors_of_unknown_node_raise_key_error(self):
        with pytest.raises(KeyError, match=r"\(9, 9\)"):
            RoadNetwork.grid(2, 2).successors((9, 9))


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
