"""Tests for the pipeline (Figure 1) and the benchmarking harness."""

import numpy as np
import pytest

from repro.core import DecisionPipeline, RunReport, StageCache
from repro.benchmarking import ForecastingLeaderboard, summarize_latencies
from repro.datasets import seasonal_series
from repro.analytics.forecasting import (
    ARForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)


class TestPipeline:
    def build(self):
        pipeline = DecisionPipeline("test run")
        pipeline.add_data("load", lambda s: ("loaded", {"rows": 100}),
                          reads=(), writes=())
        pipeline.add_governance("impute",
                                lambda s: s.setdefault("clean", True)
                                and "imputed", reads=(), writes=("clean",))
        pipeline.add_analytics("forecast", lambda s: "forecasted",
                               reads=(), writes=())
        pipeline.add_decision("choose", lambda s: "chose option A",
                              reads=(), writes=())
        return pipeline

    def test_stages_run_in_layer_order(self):
        # Every stage rewrites one shared key, so contracts chain them.
        order = []
        pipeline = DecisionPipeline()
        for add, name in ((pipeline.add_decision, "d"),
                          (pipeline.add_data, "a"),
                          (pipeline.add_analytics, "c"),
                          (pipeline.add_governance, "b")):
            add(name, lambda s, n=name: order.append(n) or n,
                reads=(), writes=("turn",))
        pipeline.run()
        assert order == ["a", "b", "c", "d"]

    def test_state_threads_through(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("set", lambda s: s.update(x=1) or "set",
                          reads=(), writes=("x",))
        pipeline.add_decision("use",
                              lambda s: f"x was {s['x']}",
                              reads=("x",), writes=())
        state, report = pipeline.run()
        assert state["x"] == 1
        assert report.stages("decision")[0].summary == "x was 1"

    def test_report_contents(self):
        _, report = self.build().run()
        assert isinstance(report, RunReport)
        assert len(report.records) == 4
        assert report.stages("governance")[0].name == "impute"
        assert report.stages("data")[0].details == {"rows": 100}
        rendered = report.render()
        assert "impute" in rendered and "decision" in rendered

    def test_detail_keys_never_collide_with_record_fields(self):
        # Regression: details were splatted into RunReport.add as
        # keywords, so a "retries" or "status" detail crashed the run.
        details = {key: "detail" for key in (
            "status", "error", "cache_hit", "layer", "name", "summary",
            "retries")}
        pipeline = DecisionPipeline("details")
        pipeline.add_data("load", lambda s: ("loaded", details),
                          reads=(), writes=())
        cache = StageCache()
        for hits in (0, 1):  # live, then replayed from the cache
            _, report = pipeline.run(cache=cache)
            (record,) = report.records
            assert report.cache_hits == hits
            assert record.details == details
            assert (record.status, record.retries, record.name,
                    record.summary) == ("ok", 0, "load", "loaded")

    def test_without_stage_ablation(self):
        pipeline = self.build()
        ablated = pipeline.without_stage("impute")
        assert "impute" not in ablated.stage_names
        assert "impute" in pipeline.stage_names  # original untouched
        state, report = ablated.run()
        assert len(report.records) == 3

    def test_without_unknown_stage(self):
        with pytest.raises(KeyError):
            self.build().without_stage("nothing")

    def test_empty_pipeline_rejected(self):
        with pytest.raises(RuntimeError):
            DecisionPipeline().run()

    def test_invalid_layer_and_function(self):
        pipeline = DecisionPipeline()
        with pytest.raises(ValueError):
            pipeline.add_stage("magic", "x", lambda s: "x",
                               reads=(), writes=())
        with pytest.raises(TypeError):
            pipeline.add_data("x", "not callable", reads=(), writes=())

    def test_initial_state_copied(self):
        initial = {"k": 1}
        pipeline = DecisionPipeline()
        pipeline.add_data("mutate", lambda s: s.update(k=2) or "done",
                          reads=(), writes=("k",))
        state, _ = pipeline.run(initial)
        assert state["k"] == 2
        assert initial["k"] == 1


class TestLeaderboard:
    @pytest.fixture(scope="class")
    def board(self):
        board = ForecastingLeaderboard(horizon=12, n_origins=3)
        board.add_model("naive", lambda: NaiveForecaster())
        board.add_model("snaive", lambda: SeasonalNaiveForecaster(96))
        board.add_model("ar", lambda: ARForecaster(8, seasonal_period=96))
        board.add_dataset(
            "seasonal_a", seasonal_series(600,
                                          rng=np.random.default_rng(0)))
        board.add_dataset(
            "seasonal_b", seasonal_series(700, amplitude=3.0,
                                          rng=np.random.default_rng(1)))
        board.run()
        return board

    def test_grid_complete(self, board):
        assert len(board.results) == 3 * 2
        for row in board.results:
            assert "mae" in row and "rmse" in row and "smape" in row
            assert row["seconds"] >= 0

    def test_table_shapes(self, board):
        table = board.table("mae")
        assert table["scores"].shape == (3, 2)
        assert len(table["mean_rank"]) == 3

    def test_seasonal_models_outrank_naive(self, board):
        table = board.table("mae")
        ranks = dict(zip(table["models"], table["mean_rank"]))
        assert ranks["snaive"] < ranks["naive"]
        assert ranks["ar"] < ranks["naive"]

    def test_failed_model_gets_nan_not_crash(self):
        board = ForecastingLeaderboard(horizon=12, n_origins=2)
        board.add_model("hw_too_long",
                        lambda: SeasonalNaiveForecaster(100000))
        board.add_dataset("short",
                          seasonal_series(300,
                                          rng=np.random.default_rng(2)))
        results = board.run()
        assert np.isnan(results[0]["mae"])

    def test_render_is_text_table(self, board):
        text = board.render("mae")
        assert "mean_rank" in text
        assert "snaive" in text

    def test_run_without_registration(self):
        with pytest.raises(RuntimeError):
            ForecastingLeaderboard().run()

    def test_unknown_metric(self, board):
        with pytest.raises(KeyError):
            board.table("accuracy")


class TestDetectionLeaderboard:
    @pytest.fixture(scope="class")
    def board(self):
        from repro.benchmarking import DetectionLeaderboard
        from repro.datasets import inject_anomalies
        from repro.analytics.anomaly import (
            AutoencoderDetector,
            SpectralResidualDetector,
        )

        board = DetectionLeaderboard()
        board.add_detector("spectral",
                           lambda: SpectralResidualDetector())
        board.add_detector("autoencoder", lambda: AutoencoderDetector(
            window=24, n_epochs=25, rng=np.random.default_rng(0)))
        for name, seed in (("easy", 1), ("noisy", 2)):
            noise = 0.3 if name == "easy" else 0.8
            train = seasonal_series(800, noise_scale=noise,
                                    rng=np.random.default_rng(seed))
            test_clean = seasonal_series(
                400, noise_scale=noise,
                rng=np.random.default_rng(seed + 10))
            test, labels = inject_anomalies(
                test_clean, 0.05, rng=np.random.default_rng(seed + 20))
            board.add_dataset(name, train, test, labels)
        board.run()
        return board

    def test_grid_complete(self, board):
        assert len(board.results) == 2 * 2
        for row in board.results:
            assert 0.0 <= row["roc_auc"] <= 1.0

    def test_detectors_above_chance(self, board):
        table = board.table("roc_auc")
        assert np.nanmin(table["scores"]) > 0.5

    def test_render(self, board):
        text = board.render("best_f1")
        assert "spectral" in text and "mean_rank" in text

    def test_validation(self, board):
        from repro.benchmarking import DetectionLeaderboard

        empty = DetectionLeaderboard()
        with pytest.raises(RuntimeError):
            empty.run()
        with pytest.raises(RuntimeError):
            empty.table("roc_auc")
        with pytest.raises(ValueError):
            empty.add_dataset(
                "bad", None, seasonal_series(
                    50, rng=np.random.default_rng(3)),
                np.zeros(50, dtype=bool))
        with pytest.raises(KeyError):
            board.table("accuracy")


class TestSummarizeLatencies:
    def test_empty_input_gives_zeros(self):
        assert summarize_latencies([]) == {
            "n_samples": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
            "mean": 0.0, "max": 0.0}

    def test_percentiles_equal_numpy(self):
        samples = np.random.default_rng(7).exponential(0.01, 257)
        summary = summarize_latencies(iter(samples.tolist()))
        p50, p90, p99 = np.percentile(samples, [50, 90, 99])
        assert (summary["p50"], summary["p90"], summary["p99"]) == \
            (p50, p90, p99)
        assert summary["n_samples"] == 257
        assert summary["mean"] == samples.mean()
        assert summary["max"] == samples.max()
