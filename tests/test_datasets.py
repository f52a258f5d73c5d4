"""Tests for the synthetic workload generators in repro.datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork
from repro.datasets import (
    TrafficSimulator,
    TrajectoryGenerator,
    cloud_demand_dataset,
    diurnal_profile,
    inject_anomalies,
    seasonal_series,
    simulate_trip,
    sparse_buoy_observations,
    traffic_speed_dataset,
    wave_field_dataset,
)
from repro.datasets.traffic import _diurnal_factor
from tests.oracles import sample_edge_times_reference


class TestDiurnalProfile:
    def test_range(self):
        minutes = np.arange(0, 24 * 60)
        factor = diurnal_profile(minutes)
        assert np.all(factor > 0) and np.all(factor <= 1)

    def test_rush_hour_slower_than_night(self):
        assert diurnal_profile(8 * 60) < diurnal_profile(3 * 60)

    def test_wraps_past_midnight(self):
        assert diurnal_profile(10) == pytest.approx(
            float(diurnal_profile(24 * 60 + 10))
        )


class TestTrafficSpeedDataset:
    def test_shapes_and_reproducibility(self):
        a = traffic_speed_dataset(n_sensors=8, n_days=2,
                                  rng=np.random.default_rng(7))
        b = traffic_speed_dataset(n_sensors=8, n_days=2,
                                  rng=np.random.default_rng(7))
        assert len(a) == 2 * 96  # 15-minute default interval
        assert a.n_sensors == 8
        assert np.allclose(a.values, b.values)

    def test_speeds_positive(self):
        cts = traffic_speed_dataset(n_sensors=6, n_days=1,
                                    rng=np.random.default_rng(0))
        assert np.all(cts.values >= 3.0)

    def test_rush_hour_dip_visible(self):
        cts = traffic_speed_dataset(n_sensors=10, n_days=5, n_events=0,
                                    rng=np.random.default_rng(1))
        values = cts.values
        steps_per_day = 96
        minutes = (np.arange(len(cts)) * 15) % (24 * 60)
        rush = (np.abs(minutes - 8 * 60) < 45)
        night = (minutes < 4 * 60)
        weekday = ((np.arange(len(cts)) * 15) // (24 * 60)) % 7 < 5
        assert values[rush & weekday].mean() < values[night & weekday].mean()
        assert steps_per_day * 5 == len(cts)

    def test_spatial_correlation_neighbors_exceed_random(self):
        cts = traffic_speed_dataset(n_sensors=20, n_days=7, n_events=0,
                                    rng=np.random.default_rng(2))
        residual = cts.values - cts.values.mean(axis=1, keepdims=True)
        corr = np.corrcoef(residual.T)
        ring_pairs = [(i, (i + 1) % 20) for i in range(20)]
        far_pairs = [(i, (i + 10) % 20) for i in range(20)]
        near = np.mean([corr[i, j] for i, j in ring_pairs])
        far = np.mean([corr[i, j] for i, j in far_pairs])
        assert near > far

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError):
            traffic_speed_dataset(n_sensors=2)


class TestTrafficSimulator:
    @pytest.fixture
    def simulator(self):
        net = RoadNetwork.grid(4, 4)
        return TrafficSimulator(net, rng=np.random.default_rng(3))

    def test_requires_network(self):
        with pytest.raises(TypeError):
            TrafficSimulator("not a network")

    def test_sample_times_positive(self, simulator):
        path = simulator.network.shortest_path((0, 0), (3, 3))
        edges = simulator.network.path_edges(path)
        times = simulator.sample_edge_times(edges,
                                            rng=np.random.default_rng(0))
        assert np.all(times > 0)
        assert len(times) == len(edges)

    def test_mean_travel_time_close_to_empirical(self, simulator):
        path = [(0, 0), (0, 1)]
        samples = simulator.sample_path_times(
            path, 4000, rng=np.random.default_rng(1))
        expected = simulator.mean_travel_time((0, 0), (0, 1))
        assert samples.mean() == pytest.approx(expected, rel=0.1)

    def test_rush_hour_times_longer(self, simulator):
        path = simulator.network.shortest_path((0, 0), (3, 3))
        rush = simulator.sample_path_times(
            path, 300, departure_minute=8 * 60,
            rng=np.random.default_rng(2))
        night = simulator.sample_path_times(
            path, 300, departure_minute=3 * 60,
            rng=np.random.default_rng(2))
        assert rush.mean() > night.mean()

    def test_path_times_positively_correlated_along_route(self, simulator):
        """The shared trip factor makes path variance exceed the sum of
        per-edge variances (the E5 phenomenon)."""
        path = simulator.network.shortest_path((0, 0), (3, 3))
        edges = simulator.network.path_edges(path)
        rng = np.random.default_rng(4)
        samples = np.array([
            simulator.sample_edge_times(edges, rng=rng)
            for _ in range(2000)
        ])
        path_variance = samples.sum(axis=1).var()
        independent_variance = samples.var(axis=0).sum()
        assert path_variance > 1.2 * independent_variance


def heterogeneous_simulator(seed):
    """A 5x5 grid simulator with volatility and speed overrides."""
    network = RoadNetwork.grid(5, 5)
    simulator = TrafficSimulator(network, sigma_correlated=0.3,
                                 sigma_independent=0.2,
                                 rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    edges = network.edges()
    for index in rng.choice(len(edges), size=12, replace=False):
        u, v = edges[int(index)]
        simulator.set_edge_profile(
            u, v, volatility=float(rng.choice([0.3, 1.7, 3.0])),
            speed=float(rng.uniform(0.4, 2.0)) if index % 2 else None)
    return simulator


def random_route(network, rng):
    nodes = network.nodes()
    origin, destination = rng.choice(len(nodes), size=2, replace=False)
    return network.path_edges(network.shortest_path(
        nodes[int(origin)], nodes[int(destination)]))


class TestSampleEdgeTimesDifferential:
    """``sample_edge_times`` against the per-edge loop it replaced
    (``tests.oracles.sample_edge_times_reference``): equal times and
    the generator left at the same point of its stream."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**16),
           departure=st.floats(min_value=-3000.0, max_value=5000.0,
                               allow_nan=False))
    def test_equals_reference(self, seed, departure):
        simulator = heterogeneous_simulator(seed % 7)
        edges = random_route(simulator.network,
                             np.random.default_rng(seed))
        rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
        times = simulator.sample_edge_times(edges, departure, rng=rng_a)
        expected = sample_edge_times_reference(simulator, edges,
                                               departure, rng=rng_b)
        assert times.tobytes() == expected.tobytes()
        assert rng_a.normal() == rng_b.normal()

    def test_departure_crossing_midnight(self):
        simulator = heterogeneous_simulator(2)
        edges = simulator.network.path_edges(
            simulator.network.shortest_path((0, 0), (4, 4)))
        departure = 24 * 60 - 3.0
        times = simulator.sample_edge_times(
            edges, departure, rng=np.random.default_rng(5))
        expected = sample_edge_times_reference(
            simulator, edges, departure, rng=np.random.default_rng(5))
        assert departure + times[0] < 24 * 60 < departure + times.sum()
        assert times.tobytes() == expected.tobytes()

    def test_default_rng_is_the_simulators_own(self):
        fast, slow = heterogeneous_simulator(4), heterogeneous_simulator(4)
        edges = fast.network.path_edges(
            fast.network.shortest_path((0, 4), (4, 0)))
        for departure in (8 * 60, 17.5 * 60, 3.0):
            times = fast.sample_edge_times(edges, departure)
            expected = sample_edge_times_reference(slow, edges, departure)
            assert times.tobytes() == expected.tobytes()
        assert fast._rng.bit_generator.state == \
            slow._rng.bit_generator.state

    def test_no_edges_still_draws_the_trip_factor(self):
        simulator = heterogeneous_simulator(1)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        assert simulator.sample_edge_times([], rng=rng_a).shape == (0,)
        assert sample_edge_times_reference(simulator, [], rng=rng_b) \
            .shape == (0,)
        assert rng_a.normal() == rng_b.normal()


def test_diurnal_factor_has_the_profile_bits():
    """The per-edge factor ``sample_edge_times`` computes on scalars
    equals ``float(diurnal_profile(m))`` bit for bit, on a dense sweep
    over several days (negative minutes too) and both rush hours."""
    rng = np.random.default_rng(0)
    minutes = np.concatenate([
        np.linspace(-2 * 24 * 60, 3 * 24 * 60, 100_001),
        rng.uniform(0, 24 * 60, 20_000),
        8 * 60 + rng.normal(0, 120, 10_000),
        17.5 * 60 + rng.normal(0, 120, 10_000),
    ]).tolist()
    assert [_diurnal_factor(m) for m in minutes] == \
        [float(diurnal_profile(m)) for m in minutes]


class TestSimulateTrip:
    def test_endpoints_and_monotone_time(self):
        net = RoadNetwork.grid(3, 3)
        path = net.shortest_path((0, 0), (2, 2))
        times = np.full(len(path) - 1, 2.0)
        trajectory = simulate_trip(net, path, times, sample_interval=0.5)
        assert trajectory[0].x == 0.0 and trajectory[0].y == 0.0
        assert (trajectory[-1].x, trajectory[-1].y) == net.position((2, 2))
        gaps = np.diff(trajectory.times())
        assert np.all(gaps > 0)

    def test_wrong_edge_times(self):
        net = RoadNetwork.grid(3, 3)
        path = net.shortest_path((0, 0), (2, 2))
        with pytest.raises(ValueError):
            simulate_trip(net, path, [1.0])


class TestTrajectoryGenerator:
    def test_generate_returns_matched_pairs(self):
        net = RoadNetwork.grid(5, 5)
        sim = TrafficSimulator(net, rng=np.random.default_rng(0))
        gen = TrajectoryGenerator(sim, rng=np.random.default_rng(1))
        trips = gen.generate(5, min_hops=3)
        assert len(trips) == 5
        for path, trajectory in trips:
            assert len(path) - 1 >= 3
            start = net.position(path[0])
            assert trajectory[0].x == pytest.approx(start[0])
            assert trajectory[0].y == pytest.approx(start[1])

    def test_noise_applied(self):
        net = RoadNetwork.grid(5, 5)
        sim = TrafficSimulator(net, rng=np.random.default_rng(0))
        gen = TrajectoryGenerator(sim, rng=np.random.default_rng(1))
        (path, noisy), = gen.generate_on_paths(
            [net.shortest_path((0, 0), (4, 4))], noise_sigma=0.3)
        # noisy points should not all lie exactly on grid lines
        coords = noisy.coordinates()
        on_grid = np.isclose(coords[:, 0] % 1.0, 0.0) | np.isclose(
            coords[:, 1] % 1.0, 0.0)
        assert not on_grid.all()


class TestCloudDemand:
    def test_shapes_and_labels(self):
        series, bursts = cloud_demand_dataset(
            n_days=4, rng=np.random.default_rng(5))
        assert len(series) == 4 * 144
        assert bursts.shape == (len(series),)
        assert np.all(series.values >= 0)

    def test_bursts_raise_demand(self):
        series, bursts = cloud_demand_dataset(
            n_days=14, burst_scale=300.0, rng=np.random.default_rng(6))
        if bursts.any() and (~bursts).any():
            values = series.values[:, 0]
            assert values[bursts].mean() > values[~bursts].mean()

    def test_drift(self):
        series, _ = cloud_demand_dataset(
            n_days=10, drift_per_day=20.0, burst_rate_per_day=0.0,
            rng=np.random.default_rng(7))
        values = series.values[:, 0]
        first, last = values[:144].mean(), values[-144:].mean()
        assert last > first + 100


class TestAnomalies:
    def test_seasonal_series_period(self):
        series = seasonal_series(n_steps=960, period=96, noise_scale=0.0,
                                 rng=np.random.default_rng(0))
        values = series.values[:, 0]
        assert np.allclose(values[:96], values[96:192], atol=1e-9)

    def test_injection_rate_and_labels(self):
        series = seasonal_series(n_steps=2000, rng=np.random.default_rng(1))
        corrupted, labels = inject_anomalies(
            series, 0.05, rng=np.random.default_rng(2))
        assert labels.sum() == pytest.approx(100, abs=15)
        assert len(corrupted) == len(series)

    def test_point_anomalies_are_large(self):
        series = seasonal_series(n_steps=1000, noise_scale=0.1,
                                 rng=np.random.default_rng(3))
        corrupted, labels = inject_anomalies(
            series, 0.03, kinds=("point",), magnitude=6.0,
            rng=np.random.default_rng(4))
        deviation = np.abs(corrupted.values - series.values)[:, 0]
        assert deviation[labels].mean() > 5 * deviation[~labels].mean()

    def test_unknown_kind_rejected(self):
        series = seasonal_series(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            inject_anomalies(series, 0.05, kinds=("weird",))

    def test_clean_points_untouched_for_point_kind(self):
        series = seasonal_series(n_steps=500, rng=np.random.default_rng(5))
        corrupted, labels = inject_anomalies(
            series, 0.04, kinds=("point",), rng=np.random.default_rng(6))
        assert np.allclose(corrupted.values[~labels], series.values[~labels])


class TestWaves:
    def test_field_shape(self):
        seq = wave_field_dataset(n_frames=10, grid=(8, 8),
                                 rng=np.random.default_rng(0))
        assert len(seq) == 10
        assert seq.grid_shape == (8, 8)

    def test_field_is_smooth_in_time(self):
        seq = wave_field_dataset(n_frames=20, grid=(10, 10),
                                 rng=np.random.default_rng(1))
        frames = seq.frames[..., 0]
        step_change = np.abs(np.diff(frames, axis=0)).mean()
        spread = frames.std()
        assert step_change < spread  # consecutive frames are similar

    def test_buoys_static_and_fraction(self):
        seq = wave_field_dataset(n_frames=5, grid=(10, 10),
                                 rng=np.random.default_rng(2))
        observed, mask = sparse_buoy_observations(
            seq, 0.2, rng=np.random.default_rng(3))
        assert mask.sum() == 20
        assert np.isnan(observed[:, ~mask]).all()
        assert not np.isnan(observed[:, mask]).any()

    def test_invalid_fraction(self):
        seq = wave_field_dataset(n_frames=3, rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            sparse_buoy_observations(seq, 0.0)
