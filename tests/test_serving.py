"""Tests for the serving layer (DecisionServer + load generator).

Batched serving must be *indistinguishable* from calling the
underlying query APIs directly — every ``ok`` value is equivalence-
checked against a direct single-call oracle — while admission control
(bounded queue, deadline-aware shedding) and per-request deadlines
resolve to typed results instead of exceptions.
"""

import time

import numpy as np
import pytest

from repro import DecisionServer, RoadNetwork
from repro.core import RunDeadlineExceeded
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import StochasticRouter
from repro.decision.utility import DeadlineUtility
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import EdgeCentricModel
from repro.observability.metrics import use_registry
from repro.serve import (
    DistanceQuery,
    MatchQuery,
    Overloaded,
    RouteQuery,
    ServeResult,
)

from .loadgen import closed_loop


@pytest.fixture(scope="module")
def world():
    """Network + fitted cost model + trajectories, shared read-only."""
    network = RoadNetwork.grid(5, 5)
    simulator = TrafficSimulator(network, rng=np.random.default_rng(0))
    generator = TrajectoryGenerator(simulator,
                                    rng=np.random.default_rng(1))
    trips_xy = generator.generate(4, noise_sigma=0.08,
                                  sample_interval=0.5, min_hops=4)
    trajectories = [trajectory for _, trajectory in trips_xy]
    od_pairs = [((0, 0), (4, 4)), ((0, 4), (4, 0)), ((2, 0), (2, 4))]
    rng = np.random.default_rng(2)
    trips = []
    for origin, destination in od_pairs:
        for path in network.k_shortest_paths(origin, destination, 4):
            edges = network.path_edges(path)
            for _ in range(25):
                trips.append((path,
                              simulator.sample_edge_times(edges, 480,
                                                          rng=rng),
                              480.0))
    model = EdgeCentricModel(n_bins=30).fit(trips)
    return network, model, od_pairs, trajectories


def make_server(world, **kwargs):
    network, model, _, _ = world
    router = StochasticRouter(network, model, n_candidates=4)
    matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5)
    kwargs.setdefault("utility", DeadlineUtility(10.0))
    return DecisionServer(router=router, matcher=matcher, **kwargs), \
        router, matcher


def assert_route_equal(served, direct):
    """``best_path`` triples are equal (histograms compared by value)."""
    if direct is None:
        assert served is None
        return
    path, distribution, value = served
    direct_path, direct_distribution, direct_value = direct
    assert path == direct_path
    np.testing.assert_array_equal(distribution.support,
                                  direct_distribution.support)
    np.testing.assert_array_equal(distribution.probabilities,
                                  direct_distribution.probabilities)
    assert value == direct_value


class StubRouter:
    """Duck-typed router with controllable latency, for admission tests."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.network = None
        self.calls = []

    def route_many(self, queries, utility, *, prune=True):
        if self.delay:
            time.sleep(self.delay)
        self.calls.append((len(queries), utility))
        return [(origin, destination, minute)
                for origin, destination, minute in queries]


class TestEquivalence:
    def test_route_matches_direct_call(self, world):
        network, model, od_pairs, _ = world
        server, router, _ = make_server(world)
        oracle = StochasticRouter(network, model, n_candidates=4)
        utility = DeadlineUtility(10.0)
        with server:
            for origin, destination in od_pairs:
                result = server.route(origin, destination,
                                      departure_minute=480.0)
                assert result.ok
                direct = oracle.route_many(
                    [(origin, destination, 480.0)], utility)[0]
                assert_route_equal(result.value, direct)

    def test_match_matches_direct_call(self, world):
        network, _, _, trajectories = world
        server, _, _ = make_server(world)
        oracle = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        with server:
            for trajectory in trajectories:
                result = server.match(trajectory)
                assert result.ok
                assert result.value == oracle.match(trajectory)

    def test_distances_match_direct_call(self, world):
        network, _, _, _ = world
        server, _, _ = make_server(world)
        with server:
            for cutoff in (None, 3.0):
                result = server.distances((0, 0), cutoff=cutoff)
                assert result.ok
                np.testing.assert_array_equal(
                    result.value,
                    network.dijkstra_array((0, 0), cutoff=cutoff))

    def test_per_request_utility_overrides_default(self, world):
        network, model, _, _ = world
        server, _, _ = make_server(world, utility=DeadlineUtility(5.0))
        oracle = StochasticRouter(network, model, n_candidates=4)
        tight = DeadlineUtility(6.5)
        with server:
            result = server.route((0, 0), (4, 4),
                                  departure_minute=480.0,
                                  utility=tight)
        direct = oracle.route_many([((0, 0), (4, 4), 480.0)], tight)[0]
        assert_route_equal(result.value, direct)


class TestBatching:
    def test_queued_requests_coalesce_into_one_call(self):
        stub = StubRouter(delay=0.05)
        utility = DeadlineUtility(1.0)
        with DecisionServer(router=stub, utility=utility,
                            batch_window=0.0) as server:
            futures = [server.submit(RouteQuery("a", "b", float(i)))
                       for i in range(9)]
            results = [future.result() for future in futures]
        assert all(result.ok for result in results)
        assert [result.value[2] for result in results] == \
            [float(i) for i in range(9)]
        # Everything submitted while the dispatcher slept coalesced
        # into (at most a couple of) batched backend calls.
        sizes = [size for size, _ in stub.calls]
        assert sum(sizes) == 9
        assert max(sizes) > 1
        assert max(result.batch_size for result in results) == \
            max(sizes)

    def test_max_batch_caps_coalescing(self):
        stub = StubRouter(delay=0.05)
        with DecisionServer(router=stub, utility=DeadlineUtility(1.0),
                            batch_window=0.0, max_batch=4) as server:
            futures = [server.submit(RouteQuery("a", "b", float(i)))
                       for i in range(10)]
            for future in futures:
                future.result()
        assert max(size for size, _ in stub.calls) <= 4

    def test_mixed_utilities_split_into_groups(self):
        stub = StubRouter(delay=0.05)
        u1, u2 = DeadlineUtility(1.0), DeadlineUtility(2.0)
        with DecisionServer(router=stub, utility=u1,
                            batch_window=0.0) as server:
            server.submit(RouteQuery("a", "b", 0.0)).result()
            futures = [
                server.submit(RouteQuery("a", "b", float(i),
                                         utility=u2 if i % 2 else u1))
                for i in range(6)
            ]
            for future in futures:
                future.result()
        utilities = {id(u) for _, u in stub.calls}
        assert utilities == {id(u1), id(u2)}

    def test_distance_queries_deduplicate(self, world):
        network, _, _, _ = world
        calls = []
        original = network.dijkstra_array

        class SlowCountingNetwork:
            def dijkstra_array(self, source, cutoff=None):
                calls.append((source, cutoff))
                time.sleep(0.05)
                return original(source, cutoff=cutoff)

        server = DecisionServer(network=SlowCountingNetwork(),
                                batch_window=0.05)
        with server:
            # Stall the dispatcher so the identical queries coalesce
            # into one batch and share a single search.
            server.submit(DistanceQuery((0, 0)))
            time.sleep(0.01)
            futures = [server.submit(DistanceQuery((1, 1), 2.0))
                       for _ in range(6)]
            rows = [future.result().value for future in futures]
        assert calls.count(((1, 1), 2.0)) == 1
        for row in rows[1:]:
            np.testing.assert_array_equal(row, rows[0])


class TestAdmissionControl:
    def test_full_queue_sheds_with_typed_overloaded(self):
        stub = StubRouter(delay=0.2)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                max_queue=2, batch_window=0.0)
        try:
            # First request occupies the dispatcher; the next two fill
            # the bounded queue; the fourth must shed immediately.
            admitted = [server.submit(RouteQuery("a", "b", 0.0))]
            time.sleep(0.05)
            admitted += [server.submit(RouteQuery("a", "b", 1.0)),
                         server.submit(RouteQuery("a", "b", 2.0))]
            shed = server.submit(RouteQuery("a", "b", 3.0))
            assert shed.done()
            result = shed.result()
            assert isinstance(result, Overloaded)
            assert result.outcome == "overloaded"
            assert result.reason == "queue_full"
            for future in admitted:
                assert future.result().ok
        finally:
            server.close()

    def test_doomed_deadline_sheds_before_queueing(self):
        stub = StubRouter(delay=0.1)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                batch_window=0.0)
        try:
            # Prime the service-time EWMA (~0.1 s per request).
            server.submit(RouteQuery("a", "b", 0.0)).result()
            assert server.stats()["ewma_service_seconds"] > 0.01
            # Put a slow request in flight plus one queued, then ask
            # for a deadline far below the estimated wait.
            server.submit(RouteQuery("a", "b", 1.0))
            time.sleep(0.02)
            server.submit(RouteQuery("a", "b", 2.0))
            doomed = server.submit(RouteQuery("a", "b", 3.0),
                                   deadline=0.001)
            assert doomed.done()
            result = doomed.result()
            assert isinstance(result, Overloaded)
            assert result.reason == "doomed"
        finally:
            server.close()

    def test_priority_eviction_sheds_lowest_first(self):
        stub = StubRouter(delay=0.2)
        with use_registry() as registry:
            server = DecisionServer(router=stub,
                                    utility=DeadlineUtility(1.0),
                                    max_queue=2, batch_window=0.0)
            try:
                # One request in flight, then a low- and a mid-priority
                # request fill the bounded queue.
                server.submit(RouteQuery("a", "b", 0.0))
                time.sleep(0.05)
                low = server.submit(RouteQuery("a", "b", 1.0,
                                               priority=0))
                mid = server.submit(RouteQuery("a", "b", 2.0,
                                               priority=1))
                # A high-priority arrival evicts the lowest-priority
                # queued request instead of being dropped itself.
                high = server.submit(RouteQuery("a", "b", 3.0,
                                                priority=5))
                assert low.done()
                result = low.result()
                assert isinstance(result, Overloaded)
                assert result.reason == "shed_priority"
                # An arrival that outranks nothing queued sheds itself.
                equal = server.submit(RouteQuery("a", "b", 4.0,
                                                 priority=1))
                assert equal.result().reason == "queue_full"
                assert mid.result().ok
                assert high.result().ok
            finally:
                server.close()
            counter = registry.get("serve.requests_total")
            assert counter.value(outcome="overloaded",
                                 reason="shed_priority") == 1
            assert counter.value(outcome="overloaded",
                                 reason="queue_full") == 1

    def test_default_priorities_keep_fifo_shedding(self):
        """All-default priorities behave exactly like the pre-priority
        server: arrivals at a full queue shed themselves."""
        stub = StubRouter(delay=0.2)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                max_queue=1, batch_window=0.0)
        try:
            server.submit(RouteQuery("a", "b", 0.0))
            time.sleep(0.05)
            queued = server.submit(RouteQuery("a", "b", 1.0))
            shed = server.submit(RouteQuery("a", "b", 2.0))
            assert shed.result().reason == "queue_full"
            assert queued.result().ok
        finally:
            server.close()

    def test_shedding_disabled_queues_doomed_work(self):
        stub = StubRouter(delay=0.05)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                batch_window=0.0, shed_doomed=False)
        try:
            server.submit(RouteQuery("a", "b", 0.0)).result()
            server.submit(RouteQuery("a", "b", 1.0))
            future = server.submit(RouteQuery("a", "b", 2.0),
                                   deadline=0.001)
            result = future.result()
            assert result.outcome == "deadline_exceeded"
        finally:
            server.close()

    def test_constructor_validation(self):
        stub = StubRouter()
        with pytest.raises(ValueError, match="at least one"):
            DecisionServer()
        with pytest.raises(ValueError, match="max_queue"):
            DecisionServer(router=stub, max_queue=0)
        with pytest.raises(ValueError, match="batch_window"):
            DecisionServer(router=stub, batch_window=-0.1)
        with pytest.raises(ValueError, match="max_batch"):
            DecisionServer(router=stub, max_batch=0)

    def test_submit_validates_the_deadline(self):
        server = DecisionServer(router=StubRouter(),
                                utility=DeadlineUtility(1.0),
                                batch_window=0.0)
        try:
            with pytest.raises(ValueError, match="deadline"):
                server.submit(RouteQuery("a", "b", 0.0), deadline=0)
        finally:
            server.close()


class TestDeadlines:
    def test_expired_in_queue_resolves_without_service(self):
        stub = StubRouter(delay=0.15)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                batch_window=0.0, shed_doomed=False)
        try:
            server.submit(RouteQuery("a", "b", 0.0))  # occupies worker
            time.sleep(0.02)
            late = server.submit(RouteQuery("a", "b", 1.0),
                                 deadline=0.01)
            result = late.result()
            assert result.outcome == "deadline_exceeded"
            assert isinstance(result.error, RunDeadlineExceeded)
            assert result.value is None
            # The expired request never reached the backend.
            assert all(size == 1 for size, _ in stub.calls)
        finally:
            server.close()

    def test_deadline_met_serves_normally(self, world):
        server, _, _ = make_server(world)
        with server:
            result = server.route((0, 0), (4, 4),
                                  departure_minute=480.0,
                                  deadline=30.0)
        assert result.ok

    def test_invalid_deadline_raises(self, world):
        server, _, _ = make_server(world)
        with server:
            with pytest.raises(ValueError, match="deadline"):
                server.submit(RouteQuery((0, 0), (4, 4)), deadline=0)


class TestErrors:
    def test_off_map_trajectory_isolated_in_batch(self, world):
        network, _, _, trajectories = world
        from repro.datatypes import GpsPoint, Trajectory

        off_map = Trajectory([GpsPoint(1e6, 1e6, 0.0),
                              GpsPoint(1e6 + 1.0, 1e6 + 1.0, 1.0)])
        server, _, matcher = make_server(world, batch_window=0.05)
        oracle = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        with server:
            server.match(trajectories[0])  # hold dispatcher briefly
            futures = [server.submit(MatchQuery(trajectories[0])),
                       server.submit(MatchQuery(off_map)),
                       server.submit(MatchQuery(trajectories[1]))]
            good0, bad, good1 = [future.result() for future in futures]
        assert good0.ok and good0.value == oracle.match(trajectories[0])
        assert good1.ok and good1.value == oracle.match(trajectories[1])
        assert bad.outcome == "error"
        assert isinstance(bad.error, ValueError)

    def test_nan_cutoff_is_an_error_result(self, world):
        network, _, _, _ = world
        with DecisionServer(network=network) as server:
            bad = server.distances((0, 0), cutoff=float("nan"))
            good = server.distances((0, 0), cutoff=3.0)
        assert bad.outcome == "error"
        assert isinstance(bad.error, ValueError)
        assert good.ok
        np.testing.assert_array_equal(
            good.value, network.dijkstra_array((0, 0), cutoff=3.0))

    def test_unknown_query_type_raises(self, world):
        server, _, _ = make_server(world)
        with server, pytest.raises(TypeError, match="unknown query"):
            server.submit("not a query")

    def test_missing_backend_is_an_error_result(self, world):
        network, _, _, trajectories = world
        with DecisionServer(network=network) as server:
            result = server.match(trajectories[0])
            assert result.outcome == "error"
            assert "no matcher" in str(result.error)
            route = server.route((0, 0), (4, 4))
            assert route.outcome == "error"

    def test_constructor_requires_some_backend(self):
        with pytest.raises(ValueError, match="at least one"):
            DecisionServer()


class TestLifecycle:
    def test_close_drains_queued_requests(self):
        stub = StubRouter(delay=0.05)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                batch_window=0.0)
        futures = [server.submit(RouteQuery("a", "b", float(i)))
                   for i in range(5)]
        server.close()
        assert all(future.result().ok for future in futures)

    def test_close_without_drain_sheds_queued_requests(self):
        stub = StubRouter(delay=0.2)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                batch_window=0.0)
        server.submit(RouteQuery("a", "b", 0.0))
        time.sleep(0.05)
        queued = [server.submit(RouteQuery("a", "b", float(i)))
                  for i in range(1, 4)]
        server.close(drain=False)
        outcomes = {future.result().outcome for future in queued}
        assert outcomes <= {"ok", "overloaded"}
        assert "overloaded" in outcomes

    def test_submit_after_close_raises(self, world):
        server, _, _ = make_server(world)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(RouteQuery((0, 0), (4, 4)))
        server.close()  # idempotent


class TestMetrics:
    def test_serving_metrics_reconcile(self, world):
        network, _, od_pairs, trajectories = world
        with use_registry() as registry:
            server, _, _ = make_server(world)
            with server:
                n_ok = 0
                for origin, destination in od_pairs:
                    assert server.route(origin, destination,
                                        departure_minute=480.0).ok
                    n_ok += 1
                for trajectory in trajectories[:2]:
                    assert server.match(trajectory).ok
                    n_ok += 1
                assert server.distances((0, 0)).ok
                n_ok += 1
                stats = server.stats()
            snapshot = registry.snapshot()
            counter = registry.get("serve.requests_total")
            assert counter.value(outcome="ok") == n_ok
            assert stats["outcomes"]["ok"] == n_ok
            assert stats["submitted"] == n_ok
            latency = registry.get("serve.latency_seconds")
            assert latency.total_count() == n_ok
            assert registry.get("serve.batch_size").total_count() \
                == stats["batches"]
            assert registry.get("serve.queue_depth").value() == 0
            assert "serve.requests_total" in snapshot

    def test_latency_quantiles_estimable_from_histogram(self, world):
        with use_registry() as registry:
            server, _, _ = make_server(world)
            with server:
                for _ in range(10):
                    server.distances((0, 0))
            histogram = registry.get("serve.latency_seconds")
            p50 = histogram.quantile(0.5, op="distance")
            p99 = histogram.quantile(0.99, op="distance")
            assert 0.0 <= p50 <= p99


class TestLoadGenerator:
    def test_closed_loop_reports_qps_and_outcomes(self, world):
        server, _, _ = make_server(world)

        def make_query(index, iteration):
            kinds = [RouteQuery((0, 0), (4, 4), 480.0),
                     DistanceQuery((2, 2), 3.0)]
            return kinds[(index + iteration) % len(kinds)]

        with server:
            report = closed_loop(server, make_query, n_clients=4,
                                 duration=0.3, deadline=5.0)
        assert report.submitted > 0
        assert report.outcomes.get("ok", 0) == report.submitted
        assert report.qps > 0
        assert report.shed_rate == 0.0
        assert 0.0 <= report.latency_p50 <= report.latency_p99
        payload = report.to_dict()
        assert payload["submitted"] == report.submitted

    def test_closed_loop_records_shedding_under_overload(self):
        stub = StubRouter(delay=0.05)
        server = DecisionServer(router=stub,
                                utility=DeadlineUtility(1.0),
                                max_queue=1, batch_window=0.0)

        def make_query(index, iteration):
            return RouteQuery("a", "b", float(iteration))

        with server:
            report = closed_loop(server, make_query, n_clients=6,
                                 duration=0.4)
        assert report.outcomes.get("overloaded", 0) > 0
        assert report.shed_rate > 0.0

    def test_result_dataclass_defaults(self):
        result = ServeResult()
        assert result.ok and result.outcome == "ok"
        shed = Overloaded(reason="doomed")
        assert not shed.ok and shed.outcome == "overloaded"
