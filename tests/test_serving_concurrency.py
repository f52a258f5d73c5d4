"""Concurrency stress tests for the shared query objects + server.

The serving layer hammers one shared matcher / router / network from
many threads, so their lazily built snapshots and LRU memos must be
thread-safe *and* history-independent: every concurrent result must
be byte-identical to what a fresh single-threaded oracle computes,
and the cache hit/miss counters must account every lookup exactly
once no matter the interleaving.
"""

import threading

import numpy as np
import pytest

from repro import DecisionServer, RoadNetwork
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import StochasticRouter
from repro.decision.utility import DeadlineUtility
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import EdgeCentricModel
from repro.observability.metrics import use_registry
from repro.serve import DistanceQuery, MatchQuery, RouteQuery

N_THREADS = 8
N_REPEATS = 3


def hammer(n_threads, work):
    """Run ``work(thread_index)`` on ``n_threads`` barrier-synchronized
    threads, re-raising the first worker exception."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def runner(index):
        barrier.wait()
        try:
            work(index)
        except BaseException as error:  # noqa: B036 - re-raised below
            errors.append(error)

    threads = [threading.Thread(target=runner, args=(i,), daemon=True)
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@pytest.fixture(scope="module")
def world():
    network = RoadNetwork.grid(6, 6)
    simulator = TrafficSimulator(network, rng=np.random.default_rng(0))
    generator = TrajectoryGenerator(simulator,
                                    rng=np.random.default_rng(1))
    trips_xy = generator.generate(6, noise_sigma=0.1,
                                  sample_interval=0.5, min_hops=4)
    trajectories = [trajectory for _, trajectory in trips_xy]
    od_pairs = [((0, 0), (5, 5)), ((0, 5), (5, 0)), ((3, 0), (3, 5)),
                ((0, 2), (5, 2))]
    rng = np.random.default_rng(2)
    trips = []
    for origin, destination in od_pairs:
        for path in network.k_shortest_paths(origin, destination, 4):
            edges = network.path_edges(path)
            for _ in range(20):
                trips.append((path,
                              simulator.sample_edge_times(edges, 480,
                                                          rng=rng),
                              480.0))
    model = EdgeCentricModel(n_bins=25).fit(trips)
    return network, model, od_pairs, trajectories


def fresh_network():
    return RoadNetwork.grid(6, 6)


class TestMatcherConcurrency:
    def test_concurrent_match_equals_serial_oracle(self, world):
        network, _, _, trajectories = world
        oracle = HmmMapMatcher(network, sigma=0.12, beta=0.5)
        expected = [oracle.match(t) for t in trajectories]
        serial_lookups = oracle.cache_info()
        serial_total = serial_lookups["hits"] + serial_lookups["misses"]

        with use_registry() as registry:
            shared = HmmMapMatcher(network, sigma=0.12, beta=0.5)

            def work(index):
                for _ in range(N_REPEATS):
                    results = shared.match_many(trajectories)
                    for result, want in zip(results, expected):
                        assert result == want

            hammer(N_THREADS, work)

            # Every lookup accounted exactly once: the per-trajectory
            # lookup count is cache-state independent, so the counters
            # must reconcile to the serial total exactly.
            info = shared.cache_info()
            assert info["hits"] + info["misses"] == \
                N_THREADS * N_REPEATS * serial_total
            counter = registry.get("fusion.distance_cache_lookups_total")
            assert counter.value(outcome="hit") \
                + counter.value(outcome="miss") == \
                info["hits"] + info["misses"]
            assert info["size"] <= info["maxsize"]

    def test_tiny_lru_under_contention_stays_correct(self, world):
        """Constant eviction pressure: popitem/move_to_end racing."""
        network, _, _, trajectories = world
        oracle = HmmMapMatcher(network, sigma=0.12, beta=0.5)
        expected = [oracle.match(t) for t in trajectories]
        shared = HmmMapMatcher(network, sigma=0.12, beta=0.5,
                               distance_cache_size=4)

        def work(index):
            for _ in range(N_REPEATS):
                for trajectory, want in zip(trajectories, expected):
                    assert shared.match(trajectory) == want

        hammer(N_THREADS, work)
        info = shared.cache_info()
        assert info["size"] <= 4


class TestNetworkConcurrency:
    def test_first_geometry_build_race(self, world):
        """8 threads trigger the lazy grid build simultaneously."""
        _, _, _, _ = world
        reference = fresh_network()
        rng = np.random.default_rng(3)
        points = [tuple(p) for p in rng.uniform(-0.5, 5.5, (40, 2))]
        radii = list(rng.uniform(0.3, 2.0, 40))
        expected_candidates = [
            reference.candidate_edges(point, radius)
            for point, radius in zip(points, radii)
        ]
        expected_nearest = [reference.nearest_node(point)
                            for point in points]

        shared = fresh_network()

        def work(index):
            for point, radius, want_c, want_n in zip(
                    points, radii, expected_candidates,
                    expected_nearest):
                assert shared.candidate_edges(point, radius) == want_c
                assert shared.nearest_node(point) == want_n

        hammer(N_THREADS, work)

    def test_first_adjacency_build_race(self, world):
        reference = fresh_network()
        sources = [(0, 0), (2, 3), (5, 5), (1, 4)]
        expected = {
            source: reference.dijkstra_array(source, cutoff=6.0)
            for source in sources
        }

        shared = fresh_network()

        def work(index):
            for source in sources:
                np.testing.assert_array_equal(
                    shared.dijkstra_array(source, cutoff=6.0),
                    expected[source])
                assert shared.dijkstra_all(source)[(5, 0)] == \
                    reference.dijkstra_all(source)[(5, 0)]

        hammer(N_THREADS, work)

    def test_snapshot_rebuilds_during_queries(self):
        """Readers racing rebuilds of the ``length``-stamped
        snapshots (a length set to its own value) always see a
        consistent snapshot (the geometry itself never changes)."""
        shared = fresh_network()
        reference = fresh_network()
        point, radius = (2.3, 2.7), 1.1
        want = reference.candidate_edges(point, radius)
        want_row = reference.dijkstra_array((0, 0))
        stop = threading.Event()
        u, v = shared.edges()[0]
        length = shared.edge_length(u, v)

        def invalidator():
            while not stop.is_set():
                shared.set_edge_attribute(u, v, "length", length)

        storm = threading.Thread(target=invalidator, daemon=True)
        storm.start()
        try:
            def work(index):
                for _ in range(30):
                    assert shared.candidate_edges(point, radius) == want
                    np.testing.assert_array_equal(
                        shared.dijkstra_array((0, 0)), want_row)
            hammer(N_THREADS, work)
        finally:
            stop.set()
            storm.join()


class TestRouterConcurrency:
    def test_concurrent_route_many_equals_serial_oracle(self, world):
        network, model, od_pairs, _ = world
        utility = DeadlineUtility(12.0)
        queries = [(origin, destination, 480.0)
                   for origin, destination in od_pairs]
        oracle = StochasticRouter(network, model, n_candidates=4)
        expected = oracle.route_many(queries, utility)
        serial_info = oracle.cache_info()
        serial_total = serial_info["hits"] + serial_info["misses"]

        with use_registry() as registry:
            shared = StochasticRouter(network, model, n_candidates=4)

            def work(index):
                for _ in range(N_REPEATS):
                    results = shared.route_many(queries, utility)
                    for result, want in zip(results, expected):
                        if want is None:
                            assert result is None
                            continue
                        assert result[0] == want[0]
                        np.testing.assert_array_equal(
                            result[1].support, want[1].support)
                        np.testing.assert_array_equal(
                            result[1].probabilities,
                            want[1].probabilities)
                        assert result[2] == want[2]

            hammer(N_THREADS, work)

            info = shared.cache_info()
            assert info["hits"] + info["misses"] == \
                N_THREADS * N_REPEATS * serial_total
            counter = registry.get(
                "decision.router_memo_lookups_total")
            assert counter.value(outcome="hit") \
                + counter.value(outcome="miss") == \
                info["hits"] + info["misses"]


class TestReducedRouterConcurrency:
    def test_concurrent_reduced_route_many_equals_serial_oracle(
            self, world):
        """The scenario-reduction path under the same stress pattern:
        8 threads share one router whose candidate ensembles are
        compressed through the lock-guarded reduction memo; every
        result must match a fresh single-threaded reduced oracle, and
        the memo probe counters must reconcile exactly."""
        network, model, od_pairs, _ = world
        utility = DeadlineUtility(12.0)
        queries = [(origin, destination, 480.0)
                   for origin, destination in od_pairs]
        oracle = StochasticRouter(network, model, n_candidates=4,
                                  reduction=2)
        expected = oracle.route_many(queries, utility)
        serial_info = oracle.cache_info()
        serial_total = serial_info["hits"] + serial_info["misses"]

        with use_registry() as registry:
            shared = StochasticRouter(network, model, n_candidates=4,
                                      reduction=2)

            def work(index):
                for _ in range(N_REPEATS):
                    results = shared.route_many(queries, utility)
                    for result, want in zip(results, expected):
                        if want is None:
                            assert result is None
                            continue
                        assert result[0] == want[0]
                        np.testing.assert_array_equal(
                            result[1].support, want[1].support)
                        np.testing.assert_array_equal(
                            result[1].probabilities,
                            want[1].probabilities)
                        assert result[2] == want[2]

            hammer(N_THREADS, work)

            info = shared.cache_info()
            assert info["hits"] + info["misses"] == \
                N_THREADS * N_REPEATS * serial_total
            assert info["reduction_memo_size"] <= info["maxsize"]
            counter = registry.get(
                "decision.router_memo_lookups_total")
            assert counter.value(outcome="hit") \
                + counter.value(outcome="miss") == \
                info["hits"] + info["misses"]

    def test_reduced_matches_full_router_under_stress(self, world):
        """Concurrent reduced routing never drifts from the full-
        ensemble winner on this workload (zero decision regret)."""
        network, model, od_pairs, _ = world
        utility = DeadlineUtility(12.0)
        queries = [(origin, destination, 480.0)
                   for origin, destination in od_pairs]
        full = StochasticRouter(network, model, n_candidates=4)
        expected = full.route_many(queries, utility)
        shared = StochasticRouter(network, model, n_candidates=4,
                                  reduction=2)

        def work(index):
            for _ in range(N_REPEATS):
                for result, want in zip(
                        shared.route_many(queries, utility), expected):
                    if want is None:
                        assert result is None
                        continue
                    assert result[0] == want[0]
                    assert result[2] == want[2]

        hammer(N_THREADS, work)


class TestServerConcurrency:
    def test_hammered_server_stays_equivalent(self, world):
        network, model, od_pairs, trajectories = world
        utility = DeadlineUtility(12.0)
        route_oracle = StochasticRouter(network, model, n_candidates=4)
        match_oracle = HmmMapMatcher(network, sigma=0.12, beta=0.5)
        expected_routes = {
            pair: route_oracle.route_many([(pair[0], pair[1], 480.0)],
                                          utility)[0]
            for pair in od_pairs
        }
        expected_matches = [match_oracle.match(t) for t in trajectories]
        expected_rows = {
            pair[0]: network.dijkstra_array(pair[0], cutoff=5.0)
            for pair in od_pairs
        }

        router = StochasticRouter(network, model, n_candidates=4)
        matcher = HmmMapMatcher(network, sigma=0.12, beta=0.5)
        with DecisionServer(router=router, matcher=matcher,
                            utility=utility, max_queue=512,
                            batch_window=0.001) as server:

            def work(index):
                for iteration in range(10):
                    pair = od_pairs[(index + iteration) % len(od_pairs)]
                    kind = (index + iteration) % 3
                    if kind == 0:
                        result = server.route(pair[0], pair[1],
                                              departure_minute=480.0)
                        assert result.ok
                        want = expected_routes[pair]
                        if want is None:
                            assert result.value is None
                        else:
                            assert result.value[0] == want[0]
                            assert result.value[2] == want[2]
                    elif kind == 1:
                        position = (index + iteration) \
                            % len(trajectories)
                        result = server.match(trajectories[position])
                        assert result.ok
                        assert result.value == \
                            expected_matches[position]
                    else:
                        result = server.distances(pair[0], cutoff=5.0)
                        assert result.ok
                        np.testing.assert_array_equal(
                            result.value, expected_rows[pair[0]])

            hammer(N_THREADS, work)
            stats = server.stats()
        assert stats["outcomes"].get("ok", 0) == N_THREADS * 10
        assert stats["submitted"] == N_THREADS * 10

    def test_hammered_submit_vs_bounded_queue_never_hangs(self, world):
        """Admission under submit storms: every future resolves."""
        network, model, od_pairs, _ = world
        router = StochasticRouter(network, model, n_candidates=4)
        with DecisionServer(router=router,
                            utility=DeadlineUtility(12.0),
                            max_queue=4, batch_window=0.0) as server:
            outcomes = []
            lock = threading.Lock()

            def work(index):
                futures = [
                    server.submit(RouteQuery(*od_pairs[0], 480.0))
                    for _ in range(20)
                ]
                resolved = [future.result(timeout=30)
                            for future in futures]
                with lock:
                    outcomes.extend(r.outcome for r in resolved)

            hammer(N_THREADS, work)
        assert len(outcomes) == N_THREADS * 20
        assert set(outcomes) <= {"ok", "overloaded"}
        assert outcomes.count("ok") > 0


class TestQueryObjectHashing:
    def test_queries_are_hashable_and_frozen(self):
        assert hash(RouteQuery("a", "b", 1.0)) == \
            hash(RouteQuery("a", "b", 1.0))
        assert hash(MatchQuery("t")) == hash(MatchQuery("t"))
        assert hash(DistanceQuery("s", 2.0)) == \
            hash(DistanceQuery("s", 2.0))
        with pytest.raises(AttributeError):
            RouteQuery("a", "b").origin = "c"
