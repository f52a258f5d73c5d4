"""Cross-layer integration tests: the paradigm's layers composed
end-to-end, as the paper's Figure 1 prescribes.

Each test wires real components from at least two layers together and
checks an end-to-end property (not a unit behaviour).
"""

import numpy as np
import pytest

from repro import DecisionPipeline, RoadNetwork, TimeSeries
from repro.analytics.forecasting import (
    ARForecaster,
    GaussianForecaster,
    GraphFilterForecaster,
)
from repro.analytics.generative import BlockBootstrapGenerator
from repro.analytics.metrics import mae
from repro.datasets import (
    TrafficSimulator,
    TrajectoryGenerator,
    cloud_demand_dataset,
    seasonal_series,
    traffic_speed_dataset,
)
from repro.datatypes import CorrelatedTimeSeries
from repro.governance.fusion import HmmMapMatcher
from repro.governance.imputation import impute_seasonal
from repro.governance.uncertainty import EdgeCentricModel
from repro.decision import (
    DeadlineUtility,
    PredictiveScaler,
    StochasticRouter,
    simulate_scaling,
)


class TestGovernanceIntoAnalytics:
    def test_imputed_data_feeds_graph_forecaster(self):
        """Corrupt -> impute -> forecast: the full left half of Fig. 1."""
        full = traffic_speed_dataset(n_sensors=10, n_days=5,
                                     rng=np.random.default_rng(0))
        train, test = full.split(0.9)
        observed = train.corrupt(0.3, np.random.default_rng(1),
                                 block_length=6)
        completed = impute_seasonal(observed.as_timeseries(), 96)
        clean = CorrelatedTimeSeries(
            completed.values, adjacency=observed.adjacency,
            timestamps=observed.timestamps)
        model = GraphFilterForecaster(n_lags=6, n_hops=1).fit(clean)
        prediction = model.predict(len(test))
        # The imputed pipeline forecasts within 50% of the
        # fully-observed upper bound.
        upper_bound_model = GraphFilterForecaster(n_lags=6,
                                                  n_hops=1).fit(train)
        upper = mae(test.values, upper_bound_model.predict(len(test)))
        actual = mae(test.values, prediction)
        assert actual < 1.5 * upper


class TestFusionIntoUncertaintyIntoDecision:
    def test_map_matched_trips_drive_routing(self):
        """GPS traces -> map matching -> uncertainty model -> route
        choice under a deadline: the taxi scenario end to end."""
        network = RoadNetwork.grid(5, 5)
        simulator = TrafficSimulator(network,
                                     rng=np.random.default_rng(2))
        generator = TrajectoryGenerator(simulator,
                                        rng=np.random.default_rng(3))
        matcher = HmmMapMatcher(network, sigma=0.08, beta=0.5)
        origin, destination = (0, 0), (4, 4)
        candidates = network.k_shortest_paths(origin, destination, 5)
        raw = generator.generate_on_paths(
            candidates * 25, departure_minute=480,
            sample_interval=0.4, noise_sigma=0.04)
        trips = []
        times_rng = np.random.default_rng(4)
        for true_path, trajectory in raw:
            matched = matcher.matched_path(trajectory)
            # The uncertainty model is fit from *matched* routes plus
            # traversal durations - the governance product.
            if matched[0] != origin or matched[-1] != destination:
                continue
            edges = network.path_edges(matched)
            durations = simulator.sample_edge_times(edges, 480,
                                                    rng=times_rng)
            trips.append((matched, durations, 480.0))
        assert len(trips) > 30  # matching succeeded for many trips

        model = EdgeCentricModel().fit(trips)
        router = StochasticRouter(network, model, n_candidates=5)
        deadline = model.path_distribution(candidates[0],
                                           480).quantile(0.9)
        path, probability = router.on_time_route(origin, destination,
                                                 deadline,
                                                 departure_minute=480)
        assert path[0] == origin and path[-1] == destination
        assert 0.5 < probability <= 1.0


class TestAnalyticsIntoDecision:
    def test_probabilistic_forecast_drives_scaler(self):
        """Forecast distributions -> provisioning decisions."""
        demand, _ = cloud_demand_dataset(n_days=8,
                                         rng=np.random.default_rng(5))
        scaler = PredictiveScaler(slo_target=0.1, seasonal_period=144,
                                  horizon=3)
        result = simulate_scaling(demand, scaler, warmup=2 * 144,
                                  lead_time=3)
        # The decision layer meets (approximately) the SLO it was asked
        # to meet - analytics uncertainty translated into capacity.
        assert result["violations"] < 0.2

    def test_generative_scenarios_bound_forecasts(self):
        """Generated scenarios are consistent with the probabilistic
        forecaster: the point forecast lies inside the scenario band."""
        series = seasonal_series(900, rng=np.random.default_rng(6))
        train, _ = series.split(0.9)
        forecaster = GaussianForecaster(
            n_lags=12, seasonal_period=96).fit(train)
        points = forecaster.predict(48)[:, 0]
        generator = BlockBootstrapGenerator(
            block_length=24, period=96,
            rng=np.random.default_rng(7)).fit(train)
        phase = len(train) % 96  # continue the history's seasonal cycle
        low = generator.scenario_quantile(48, 0.02, n_paths=100,
                                          start_phase=phase)
        high = generator.scenario_quantile(48, 0.98, n_paths=100,
                                           start_phase=phase)
        inside = np.mean((points >= low) & (points <= high))
        assert inside > 0.7


class TestFullPipeline:
    def test_four_layer_pipeline_runs_and_reports(self):
        """A complete data->governance->analytics->decision run."""
        pipeline = DecisionPipeline("integration")

        def load(state):
            series = seasonal_series(600,
                                     rng=np.random.default_rng(8))
            state["raw"] = series.corrupt(0.2,
                                          np.random.default_rng(9))
            return "loaded"

        def govern(state):
            state["clean"] = impute_seasonal(state["raw"], 96)
            return "imputed"

        def analyze(state):
            model = ARForecaster(n_lags=12,
                                 seasonal_period=96).fit(state["clean"])
            state["forecast"] = model.predict(24)
            return "forecast ready"

        def decide(state):
            threshold = float(np.quantile(
                state["clean"].values, 0.9))
            state["alert"] = bool(
                (state["forecast"] > threshold).any())
            return f"alert={state['alert']}"

        pipeline.add_data("load", load, reads=(), writes=("raw",))
        pipeline.add_governance("impute", govern,
                                reads=("raw",), writes=("clean",))
        pipeline.add_analytics("forecast", analyze,
                               reads=("clean",), writes=("forecast",))
        pipeline.add_decision("alert", decide,
                              reads=("clean", "forecast"),
                              writes=("alert",))
        state, report = pipeline.run()

        assert "alert" in state
        assert [r.layer for r in report.records] == [
            "data", "governance", "analytics", "decision"]
        assert state["forecast"].shape == (24, 1)

    def test_deadline_utility_consistent_with_histogram_cdf(self):
        """Decision-layer expected utility equals governance-layer CDF:
        the distribution contract between the two layers."""
        from repro.governance.uncertainty import Histogram

        rng = np.random.default_rng(10)
        cost = Histogram.from_samples(rng.gamma(4, 2.5, 2000),
                                      n_bins=40)
        utility = DeadlineUtility(10.0)
        assert utility.expected(cost) == pytest.approx(cost.cdf(10.0),
                                                       abs=1e-9)
