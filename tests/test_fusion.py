"""Tests for map matching, feature fusion and embedding alignment."""

import numpy as np
import pytest

from repro import RoadNetwork, TimeSeries
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.governance.fusion import (
    CcaAligner,
    HmmMapMatcher,
    add_time_features,
    align_series,
    fuse_series,
    procrustes_align,
    retrieval_accuracy,
    weather_series,
)


@pytest.fixture(scope="module")
def fleet():
    network = RoadNetwork.grid(6, 6)
    simulator = TrafficSimulator(network, rng=np.random.default_rng(0))
    generator = TrajectoryGenerator(simulator, rng=np.random.default_rng(1))
    return network, generator


class TestHmmMapMatcher:
    def test_recovers_route_with_moderate_noise(self, fleet):
        network, generator = fleet
        trips = generator.generate(5, noise_sigma=0.08,
                                   sample_interval=0.4, min_hops=4)
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        for true_path, trajectory in trips:
            matched = matcher.matched_path(trajectory)
            assert network.route_distance(true_path, matched) < 0.35

    def test_beats_nearest_edge_baseline_under_noise(self, fleet):
        """The HMM exploits route continuity that per-point snapping
        ignores - the core claim of [17]."""
        network, generator = fleet
        trips = generator.generate(6, noise_sigma=0.25,
                                   sample_interval=0.5, min_hops=5)
        matcher = HmmMapMatcher(network, sigma=0.25, beta=0.5,
                                candidate_radius=1.0)
        hmm_scores, naive_scores = [], []
        for true_path, trajectory in trips:
            matched = matcher.matched_path(trajectory)
            hmm_scores.append(network.route_distance(true_path, matched))
            true_edges = set(network.path_edges(true_path))
            snapped = set()
            for point in trajectory:
                candidates = network.candidate_edges((point.x, point.y), 1.0)
                if candidates:
                    u, v, _, _ = candidates[0]
                    snapped.add((u, v))
            union = snapped | true_edges
            naive_scores.append(1.0 - len(snapped & true_edges) / len(union))
        assert np.mean(hmm_scores) <= np.mean(naive_scores)

    def test_off_map_point_raises(self, fleet):
        network, _ = fleet
        matcher = HmmMapMatcher(network, sigma=0.05, candidate_radius=0.1)
        from repro import Trajectory

        far = Trajectory([(100.0, 100.0, 0.0), (101.0, 100.0, 1.0)])
        with pytest.raises(ValueError):
            matcher.match(far)

    def test_match_returns_one_candidate_per_point(self, fleet):
        network, generator = fleet
        (path, trajectory), = generator.generate(1, noise_sigma=0.05,
                                                 min_hops=4)
        matcher = HmmMapMatcher(network, sigma=0.1)
        matched = matcher.match(trajectory)
        assert len(matched) == len(trajectory)
        for u, v, distance, fraction in matched:
            assert network.has_edge(u, v)
            assert 0.0 <= fraction <= 1.0

    def test_type_checks(self, fleet):
        network, _ = fleet
        with pytest.raises(TypeError):
            HmmMapMatcher("not a network")
        matcher = HmmMapMatcher(network)
        with pytest.raises(TypeError):
            matcher.match([(0, 0, 0)])


class TestFeatureFusion:
    def test_align_interpolates(self):
        coarse = TimeSeries([0.0, 10.0], timestamps=[0.0, 10.0])
        aligned = align_series({"a": coarse}, np.arange(0.0, 11.0))
        assert np.allclose(aligned["a"].values[:, 0], np.arange(11.0))

    def test_align_rejects_bad_axis(self):
        series = TimeSeries([1.0, 2.0])
        with pytest.raises(ValueError):
            align_series({"a": series}, [1.0, 1.0])

    def test_fuse_column_names(self):
        a = TimeSeries(np.zeros((5, 1)))
        b = TimeSeries(np.zeros((5, 2)))
        fused, names = fuse_series({"traffic": a, "weather": b})
        assert fused.values.shape == (5, 3)
        assert names == ["traffic", "weather_0", "weather_1"]

    def test_fuse_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_series({})

    def test_add_time_features(self):
        series = TimeSeries(np.zeros(10), timestamps=np.arange(10.0))
        extended = add_time_features(series, period=10)
        assert extended.n_channels == 3
        phase = 2 * np.pi * np.arange(10) / 10
        assert np.allclose(extended.values[:, 1], np.sin(phase))

    def test_weather_series_shape(self):
        weather = weather_series(200, rng=np.random.default_rng(2))
        assert weather.values.shape == (200, 2)
        assert np.all(weather.values[:, 1] >= 0)  # rain non-negative


class TestAlignment:
    def test_procrustes_recovers_rotation(self):
        rng = np.random.default_rng(3)
        source = rng.normal(size=(100, 4))
        # Random orthogonal matrix.
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        target = source @ q
        recovered = procrustes_align(source, target)
        assert np.allclose(recovered, q, atol=1e-8)

    def test_procrustes_output_orthogonal(self):
        rng = np.random.default_rng(4)
        w = procrustes_align(rng.normal(size=(30, 3)),
                             rng.normal(size=(30, 3)))
        assert np.allclose(w.T @ w, np.eye(3), atol=1e-8)

    def test_procrustes_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_cca_finds_shared_signal(self):
        rng = np.random.default_rng(5)
        shared = rng.normal(size=(300, 2))
        x = np.column_stack([shared + 0.1 * rng.normal(size=(300, 2)),
                             rng.normal(size=(300, 3))])
        y = np.column_stack([shared @ rng.normal(size=(2, 2))
                             + 0.1 * rng.normal(size=(300, 2)),
                             rng.normal(size=(300, 4))])
        aligner = CcaAligner(n_components=2).fit(x, y)
        assert aligner.correlations[0] > 0.85

    def test_cca_transforms_correlated(self):
        rng = np.random.default_rng(6)
        shared = rng.normal(size=(400, 1))
        x = shared + 0.05 * rng.normal(size=(400, 1))
        y = -2 * shared + 0.05 * rng.normal(size=(400, 1))
        aligner = CcaAligner(n_components=1).fit(x, y)
        zx = aligner.transform_x(x)[:, 0]
        zy = aligner.transform_y(y)[:, 0]
        assert abs(np.corrcoef(zx, zy)[0, 1]) > 0.95

    def test_cca_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CcaAligner().transform_x(np.zeros((3, 2)))

    def test_cca_row_mismatch(self):
        with pytest.raises(ValueError):
            CcaAligner().fit(np.zeros((5, 2)), np.zeros((6, 2)))

    def test_retrieval_accuracy_perfect_alignment(self):
        rng = np.random.default_rng(7)
        embeddings = rng.normal(size=(50, 8))
        assert retrieval_accuracy(embeddings, embeddings) == 1.0

    def test_retrieval_accuracy_random_low(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(100, 8))
        b = rng.normal(size=(100, 8))
        assert retrieval_accuracy(a, b) < 0.2
