"""Equivalence tests for the E26 hot-path kernels.

Each vectorized/indexed kernel must return the same results as the
brute-force implementation it replaced; the brute-force paths are kept
as reference oracles in ``tests/oracles.py`` (``candidate_edges_scan``,
``nearest_node_scan``, ``match_reference``,
``_dominance_prune_pairwise``).
"""

import math

import numpy as np
import pytest

from repro import RoadNetwork
from repro._validation import trapezoid
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import StochasticRouter, RiskAverseUtility
from repro.decision.stochastic import (
    dominance_prune,
    first_order_dominates,
    second_order_dominates,
)
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import Histogram, PathCentricModel

from .oracles import (
    _dominance_prune_pairwise,
    candidate_edges_scan,
    match_reference,
    nearest_node_scan,
)


@pytest.fixture(scope="module")
def networks():
    return [
        RoadNetwork.grid(7, 5, spacing=0.8),
        RoadNetwork.random_geometric(150, 1.8,
                                     rng=np.random.default_rng(11)),
    ]


class TestSpatialIndex:
    def test_candidate_edges_matches_scan(self, networks):
        rng = np.random.default_rng(0)
        for network in networks:
            for _ in range(150):
                point = tuple(rng.uniform(-1.0, 11.0, 2))
                radius = float(rng.uniform(0.05, 2.5))
                fast = network.candidate_edges(point, radius)
                slow = candidate_edges_scan(network, point, radius)
                assert {c[:2] for c in fast} == {c[:2] for c in slow}
                slow_by_edge = {c[:2]: c[2:] for c in slow}
                for u, v, distance, fraction in fast:
                    ref_distance, ref_fraction = slow_by_edge[(u, v)]
                    assert distance == pytest.approx(ref_distance,
                                                     abs=1e-9)
                    assert fraction == pytest.approx(ref_fraction,
                                                     abs=1e-9)
                distances = [c[2] for c in fast]
                assert distances == sorted(distances)

    def test_nearest_node_matches_scan(self, networks):
        rng = np.random.default_rng(1)
        for network in networks:
            for _ in range(200):
                point = tuple(rng.uniform(-1.0, 11.0, 2))
                fast = network.nearest_node(point)
                slow = nearest_node_scan(network, point)
                if fast != slow:  # only acceptable on exact ties
                    fx, fy = network.position(fast)
                    sx, sy = network.position(slow)
                    fast_distance = math.hypot(point[0] - fx,
                                               point[1] - fy)
                    slow_distance = math.hypot(point[0] - sx,
                                               point[1] - sy)
                    assert fast_distance == pytest.approx(slow_distance,
                                                          abs=1e-9)

    def test_index_rebuilds_after_mutation(self):
        network = RoadNetwork.grid(3, 3)
        assert network.candidate_edges((0.5, 0.0), 0.2)
        network.graph.add_node("new", pos=(10.0, 10.0))
        network.graph.add_edge((2, 2), "new", length=1.0)
        # The new far-away edge is only findable if the index rebuilt.
        found = network.candidate_edges((9.0, 9.0), 3.0)
        assert any("new" in (u, v) for u, v, _, _ in found)
        assert network.nearest_node((10.2, 10.2)) == "new"

    def test_invalidate_geometry_after_moving_a_node(self):
        network = RoadNetwork.grid(3, 3)
        network.nearest_node((0.0, 0.0))  # build the index
        network.graph.nodes[(0, 0)]["pos"] = (-5.0, -5.0)
        network.invalidate_geometry()
        assert network.nearest_node((-4.8, -4.9)) == (0, 0)

    def test_bounded_dijkstra_exact_within_cutoff(self, networks):
        for network in networks:
            source = network.nodes()[0]
            full = network.dijkstra_all(source)
            bounded = network.dijkstra_all(source, cutoff=2.0)
            for node, distance in bounded.items():
                assert distance == pytest.approx(full[node])
                assert distance <= 2.0 + 1e-12
            inside = {n for n, d in full.items() if d <= 2.0}
            assert inside <= set(bounded)

    def test_dijkstra_array_matches_dict(self, networks):
        for network in networks:
            index_of, nodes = network.node_index()
            assert [index_of[node] for node in nodes] == \
                list(range(network.n_nodes))
            for cutoff in (None, 2.5):
                source = nodes[1]
                as_dict = network.dijkstra_all(source, cutoff=cutoff)
                as_array = network.dijkstra_array(source, cutoff=cutoff)
                assert as_array.shape == (network.n_nodes,)
                for node in nodes:
                    expected = as_dict.get(node, math.inf)
                    assert as_array[index_of[node]] == \
                        pytest.approx(expected)


@pytest.fixture(scope="module")
def fleet():
    network = RoadNetwork.grid(8, 8)
    simulator = TrafficSimulator(network, rng=np.random.default_rng(0))
    generator = TrajectoryGenerator(simulator,
                                    rng=np.random.default_rng(1))
    return network, generator


class TestVectorizedViterbi:
    def test_match_equals_reference(self, fleet):
        network, generator = fleet
        for noise in (0.05, 0.15, 0.3):
            trips = generator.generate(6, noise_sigma=noise,
                                       sample_interval=0.4, min_hops=5)
            matcher = HmmMapMatcher(network, sigma=max(noise, 0.1),
                                    beta=0.5, candidate_radius=1.0)
            for _, trajectory in trips:
                assert matcher.match(trajectory) == \
                    match_reference(matcher, trajectory)

    def test_bounded_equals_unbounded_cutoff(self, fleet):
        network, generator = fleet
        trips = generator.generate(5, noise_sigma=0.2,
                                   sample_interval=0.5, min_hops=5)
        bounded = HmmMapMatcher(network, sigma=0.2, beta=0.5,
                                candidate_radius=1.0)
        unbounded = HmmMapMatcher(network, sigma=0.2, beta=0.5,
                                  candidate_radius=1.0,
                                  beta_cutoff=None)
        for _, trajectory in trips:
            assert bounded.match(trajectory) == \
                unbounded.match(trajectory)

    def test_match_many_matches_loop(self, fleet):
        network, generator = fleet
        trips = generator.generate(4, noise_sigma=0.1,
                                   sample_interval=0.4, min_hops=4)
        trajectories = [trajectory for _, trajectory in trips]
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        batched = matcher.match_many(trajectories)
        assert batched == [matcher.match(t) for t in trajectories]

    def test_distance_cache_is_bounded_with_counters(self, fleet):
        network, generator = fleet
        trips = generator.generate(6, noise_sigma=0.1,
                                   sample_interval=0.4, min_hops=5)
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5,
                                distance_cache_size=5)
        matcher.match_many([trajectory for _, trajectory in trips])
        info = matcher.cache_info()
        assert info["size"] <= 5
        assert info["maxsize"] == 5
        assert info["hits"] > 0 and info["misses"] > 0
        matcher.clear_cache()
        assert matcher.cache_info() == {
            "hits": 0, "misses": 0, "size": 0, "maxsize": 5}

    def test_cache_upgrade_on_larger_cutoff(self, fleet):
        network, _ = fleet
        matcher = HmmMapMatcher(network, sigma=0.1)
        node = network.nodes()[0]
        small = matcher._distances_from(node, cutoff=1.0)
        large = matcher._distances_from(node, cutoff=4.0)
        assert np.isfinite(large).sum() > np.isfinite(small).sum()
        # Smaller request now hits the upgraded entry.
        hits_before = matcher.cache_info()["hits"]
        matcher._distances_from(node, cutoff=2.0)
        assert matcher.cache_info()["hits"] == hits_before + 1


def random_histograms(rng, k):
    candidates = []
    for _ in range(k):
        mean = rng.uniform(3.0, 12.0)
        std = rng.uniform(0.2, 2.0)
        samples = rng.normal(mean, std, 200)
        candidates.append(Histogram.from_samples(
            samples, n_bins=int(rng.integers(5, 30))))
    return candidates


class TestDominanceKernel:
    @pytest.mark.parametrize("order", [1, 2])
    def test_kernel_matches_pairwise_oracle(self, order):
        rng = np.random.default_rng(7)
        for _ in range(25):
            candidates = random_histograms(rng, int(rng.integers(2, 48)))
            assert dominance_prune(candidates, order=order) == \
                _dominance_prune_pairwise(candidates, order=order)

    def test_fsd_kernel_consistent_with_public_pairwise(self):
        rng = np.random.default_rng(8)
        candidates = random_histograms(rng, 12)
        survivors = set(dominance_prune(candidates, order=1))
        for j, candidate in enumerate(candidates):
            pairwise_dominated = any(
                first_order_dominates(other, candidate)
                for i, other in enumerate(candidates) if i != j
            )
            assert (j not in survivors) == pairwise_dominated

    def test_ssd_exact_is_sharper_than_fsd(self):
        rng = np.random.default_rng(9)
        candidates = random_histograms(rng, 24)
        fsd = set(dominance_prune(candidates, order=1))
        ssd = set(dominance_prune(candidates, order=2))
        assert ssd <= fsd

    def test_second_order_exactness(self):
        # A mean-preserving spread: SSD must prefer the tight one, and
        # the exact criterion must see it even when the old one-grid-step
        # Riemann slack would have hidden it.
        tight = Histogram(5.0, 0.1, [1.0])
        wide = Histogram.mixture(
            [Histogram(4.0, 0.1, [1.0]), Histogram(6.0, 0.1, [1.0])],
            [0.5, 0.5])
        assert second_order_dominates(tight, wide)
        assert not second_order_dominates(wide, tight)

    def test_edge_cases(self):
        assert dominance_prune([]) == []
        single = random_histograms(np.random.default_rng(0), 1)
        assert dominance_prune(single) == [0]
        with pytest.raises(ValueError):
            dominance_prune(single, order=3)
        with pytest.raises(TypeError):
            dominance_prune(["not a histogram"])


@pytest.fixture(scope="module")
def served_router():
    network = RoadNetwork.grid(6, 6)
    simulator = TrafficSimulator(
        network, sigma_correlated=0.3, sigma_independent=0.1,
        rng=np.random.default_rng(1))
    origin, destination = (0, 0), (5, 5)
    candidates = network.k_shortest_paths(origin, destination, 6)
    rng = np.random.default_rng(2)
    trips = []
    for _ in range(60):
        for path in candidates:
            edges = network.path_edges(path)
            times = simulator.sample_edge_times(
                edges, departure_minute=480, rng=rng)
            trips.append((path, times, 480.0))
    model = PathCentricModel(min_support=10,
                             max_subpath_edges=10).fit(trips)
    return network, model, origin, destination


class TestRouteMany:
    def test_batch_matches_single_queries(self, served_router):
        network, model, origin, destination = served_router
        utility = RiskAverseUtility(scale=20.0)
        cold = StochasticRouter(network, model, n_candidates=6)
        warm = StochasticRouter(network, model, n_candidates=6)
        queries = [(origin, destination, 480.0)] * 5 + \
            [(origin, (3, 4), 481.0)] * 3
        batch = warm.route_many(queries, utility)
        for query, result in zip(queries, batch):
            try:
                expected = cold.best_path(query[0], query[1], utility,
                                          departure_minute=query[2])
            except ValueError:
                assert result is None
                continue
            assert result[0] == expected[0]
            assert result[2] == pytest.approx(expected[2])

    def test_memo_hits_on_repeats(self, served_router):
        network, model, origin, destination = served_router
        utility = RiskAverseUtility(scale=20.0)
        router = StochasticRouter(network, model, n_candidates=6)
        router.route_many([(origin, destination, 480.0)] * 10, utility)
        info = router.cache_info()
        assert info["hits"] > 0
        assert info["path_memo_size"] >= 1
        assert info["distribution_memo_size"] >= 1
        router.clear_cache()
        assert router.cache_info()["hits"] == 0

    def test_unroutable_query_yields_none(self, served_router):
        network, model, origin, destination = served_router

        class Uncovered:
            def path_distribution(self, path, minute):
                raise KeyError("nothing observed")

        router = StochasticRouter(network, Uncovered())
        results = router.route_many([(origin, destination, 480.0)],
                                    RiskAverseUtility(scale=20.0))
        assert results == [None]

    def test_memo_disabled_with_zero_size(self, served_router):
        network, model, origin, destination = served_router
        router = StochasticRouter(network, model, n_candidates=6,
                                  memo_size=0)
        router.best_path(origin, destination,
                         RiskAverseUtility(scale=20.0),
                         departure_minute=480.0)
        info = router.cache_info()
        assert info["path_memo_size"] == 0
        assert info["distribution_memo_size"] == 0


class TestTrapezoidShim:
    def test_matches_known_integral(self):
        grid = np.linspace(0.0, 1.0, 1001)
        assert float(trapezoid(grid ** 2, grid)) == \
            pytest.approx(1.0 / 3.0, abs=1e-5)
