"""Failure-injection tests: pathological inputs must fail loudly.

"Errors should never pass silently."  Each test feeds a public API a
degenerate input — empty, constant, single-point, non-finite — and
checks that the library either handles it gracefully (documented
behaviour) or raises a clear standard exception, never returning silent
garbage.
"""

import numpy as np
import pytest

from repro import (
    DecisionPipeline,
    FaultInjector,
    RoadNetwork,
    RunDeadlineExceeded,
    SpanTracer,
    StageFailure,
    TimeSeries,
)
from repro.observability.metrics import use_registry
from repro.analytics.anomaly import AutoencoderDetector, SpectralResidualDetector
from repro.analytics.forecasting import (
    ARForecaster,
    HoltWintersForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
)
from repro.analytics.metrics import best_f1, mae, roc_auc
from repro.governance.imputation import KalmanImputer, impute_linear
from repro.governance.uncertainty import GaussianMixture, Histogram


class TestConstantSeries:
    """A constant series is legal data and must not produce NaNs."""

    CONSTANT = TimeSeries(np.full(300, 5.0))

    def test_forecasters_predict_the_constant(self):
        for forecaster in (NaiveForecaster(), ARForecaster(n_lags=4),
                           SeasonalNaiveForecaster(10)):
            prediction = forecaster.forecast(self.CONSTANT, 5)
            assert np.allclose(prediction, 5.0, atol=0.2)

    def test_standardized_handles_zero_variance(self):
        scaled, mean, std = self.CONSTANT.standardized()
        assert np.isfinite(scaled.values).all()

    def test_detector_scores_finite(self):
        detector = AutoencoderDetector(window=16, n_epochs=5,
                                       rng=np.random.default_rng(0))
        detector.fit(self.CONSTANT)
        scores = detector.score(self.CONSTANT)
        assert np.isfinite(scores).all()

    def test_imputers_fill_with_the_constant(self):
        gappy = self.CONSTANT.corrupt(0.3, np.random.default_rng(1))
        filled = impute_linear(gappy)
        assert np.allclose(filled.values, 5.0)

    def test_histogram_of_identical_samples(self):
        histogram = Histogram.from_samples(np.full(50, 3.0))
        assert histogram.mean() == pytest.approx(3.0, abs=1e-6)
        assert np.isfinite(histogram.quantile(0.5))


class TestNonFiniteInputs:
    def test_timeseries_treats_nan_as_missing_not_data(self):
        series = TimeSeries([1.0, np.nan, 3.0])
        assert series.missing_fraction() == pytest.approx(1 / 3)

    def test_forecaster_rejects_nan(self):
        with pytest.raises(ValueError):
            NaiveForecaster().fit(TimeSeries([1.0, np.nan, 3.0]))

    def test_detector_rejects_nan(self):
        with pytest.raises(ValueError):
            SpectralResidualDetector().score(
                TimeSeries([1.0, np.nan, 3.0]))

    def test_probability_vector_rejects_inf(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, [np.inf, 1.0])

    def test_metrics_propagate_rather_than_hide_nan(self):
        # A nan prediction must surface in the metric, not vanish.
        assert np.isnan(mae([1.0, 2.0], [np.nan, 2.0]))


class TestDegenerateSizes:
    def test_single_observation_series(self):
        series = TimeSeries([7.0])
        assert len(series) == 1
        with pytest.raises(ValueError):
            series.split(0.5)  # cannot split a single point

    def test_two_point_histogram(self):
        histogram = Histogram.from_samples([1.0, 2.0], n_bins=2)
        assert histogram.probabilities.sum() == pytest.approx(1.0)

    def test_gmm_more_components_than_samples(self):
        with pytest.raises(ValueError):
            GaussianMixture.fit([1.0, 2.0], n_components=5)

    def test_holt_winters_one_period_exactly(self):
        with pytest.raises(ValueError):
            HoltWintersForecaster(96).fit(TimeSeries(np.zeros(96)))

    def test_kalman_on_two_points(self):
        filled = KalmanImputer(2).impute(TimeSeries([1.0, np.nan, 2.0]))
        assert filled.is_complete()
        assert np.isfinite(filled.values).all()

    def test_smallest_legal_grid(self):
        network = RoadNetwork.grid(2, 2)
        assert network.shortest_path((0, 0), (1, 1))


class TestLabelEdgeCases:
    def test_all_positive_labels(self):
        with pytest.raises(ValueError):
            roc_auc([True, True], [0.1, 0.9])

    def test_single_anomaly_best_f1(self):
        labels = np.zeros(50, dtype=bool)
        labels[25] = True
        scores = np.zeros(50)
        scores[25] = 1.0
        f1, threshold = best_f1(labels, scores)
        assert f1 == 1.0

    def test_anomaly_at_series_boundary(self):
        rng = np.random.default_rng(2)
        values = np.sin(np.arange(400) / 20) + 0.05 * rng.normal(size=400)
        values[0] += 5.0
        values[-1] += 5.0
        detector = AutoencoderDetector(window=16, n_epochs=20,
                                       rng=np.random.default_rng(3))
        detector.fit(TimeSeries(np.sin(np.arange(400) / 20)))
        scores = detector.score(TimeSeries(values))
        # Boundary anomalies are covered by fewer windows but must
        # still stand out.
        assert scores[0] > np.median(scores) * 3
        assert scores[-1] > np.median(scores) * 3


class TestAdversarialDistributions:
    def test_extreme_outlier_in_histogram_fit(self):
        samples = np.concatenate([np.random.default_rng(4).normal(
            0, 1, 500), [1e6]])
        histogram = Histogram.from_samples(samples, n_bins=30)
        # The histogram survives, and the quantiles reflect the bulk.
        assert np.isfinite(histogram.mean())
        assert histogram.quantile(0.5) < 1e5

    def test_convolving_wildly_different_scales(self):
        narrow = Histogram.from_samples(
            np.random.default_rng(5).normal(0, 0.001, 200))
        wide = Histogram.from_samples(
            np.random.default_rng(6).normal(0, 1000.0, 200))
        total = narrow.convolve(wide)
        assert total.probabilities.sum() == pytest.approx(1.0)
        assert total.std() == pytest.approx(wide.std(), rel=0.2)


class TestEngineFailureTelemetry:
    """Every failure policy leaves a matching metric series and span.

    The engine must not just *survive* failures — it must account for
    them: ``engine.stage_outcomes_total{stage, status}`` counts every
    terminal outcome and the :class:`SpanTracer` records the matching
    span status, for each of fail, skip, fallback, retry, timeout and
    deadline-cancellation.
    """

    @staticmethod
    def _run(pipeline, tracer, expect=None, **kwargs):
        with use_registry() as registry:
            if expect is None:
                pipeline.run(tracer=tracer, **kwargs)
            else:
                with pytest.raises(expect):
                    pipeline.run(tracer=tracer, **kwargs)
        return registry

    def test_fail_policy_counts_failed_outcome(self):
        spans = SpanTracer()
        pipeline = DecisionPipeline()
        pipeline.add_data(
            "broken",
            lambda s: (_ for _ in ()).throw(ValueError("boom")),
            reads=(), writes=("x",))
        registry = self._run(pipeline, spans, expect=StageFailure)
        outcomes = registry.get("engine.stage_outcomes_total")
        assert outcomes.value(stage="broken", status="failed") == 1.0
        assert spans.span("broken").status == "failed"
        assert spans.spans(kind="attempt")[0].status == "error"
        assert spans.span("run", kind="run").status == "failed"
        assert registry.get("engine.runs_total").value(
            status="failed") == 1.0

    def test_skip_policy_counts_skipped_outcome(self):
        spans = SpanTracer()
        pipeline = DecisionPipeline()
        pipeline.add_data(
            "optional",
            lambda s: (_ for _ in ()).throw(ValueError("boom")),
            reads=(), writes=("x",), on_error="skip")
        registry = self._run(pipeline, spans)
        outcomes = registry.get("engine.stage_outcomes_total")
        assert outcomes.value(stage="optional", status="skipped") == 1.0
        assert spans.span("optional").status == "skipped"
        assert spans.span("run", kind="run").status == "ok"

    def test_fallback_policy_counts_fallback_outcome(self):
        spans = SpanTracer()
        pipeline = DecisionPipeline()
        pipeline.add_data(
            "primary",
            lambda s: (_ for _ in ()).throw(ValueError("boom")),
            reads=(), writes=("x",), on_error="fallback",
            fallback=lambda s: s.update(x=0) or "safe default")
        registry = self._run(pipeline, spans)
        outcomes = registry.get("engine.stage_outcomes_total")
        assert outcomes.value(stage="primary", status="fallback") == 1.0
        assert spans.span("primary").status == "fallback"
        assert spans.spans(kind="fallback")[0].status == "ok"

    def test_retry_counts_attempts_and_retries(self):
        spans = SpanTracer()
        faults = FaultInjector().fail("flaky", times=2).forward_to(spans)
        pipeline = DecisionPipeline()
        pipeline.add_data("flaky", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",), retries=2, backoff=0)
        registry = self._run(pipeline, faults)
        assert registry.get("engine.stage_attempts_total").value(
            stage="flaky") == 3.0
        assert registry.get("engine.stage_retries_total").value(
            stage="flaky") == 2.0
        assert registry.get("engine.stage_outcomes_total").value(
            stage="flaky", status="ok") == 1.0
        assert registry.get("engine.faults_injected_total").value(
            stage="flaky", kind="fail") == 2.0
        assert [a.status for a in spans.spans(kind="attempt")] == \
            ["retry", "retry", "ok"]
        assert spans.span("flaky").status == "ok"

    def test_timeout_counts_timed_out_outcome(self):
        spans = SpanTracer()
        faults = FaultInjector().timeout("hang").forward_to(spans)
        pipeline = DecisionPipeline()
        pipeline.add_data("hang", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        registry = self._run(pipeline, faults, expect=StageFailure)
        outcomes = registry.get("engine.stage_outcomes_total")
        assert outcomes.value(stage="hang", status="timed_out") == 1.0
        assert spans.span("hang").status == "timed_out"
        assert spans.spans(kind="attempt")[0].status == "timeout"
        assert registry.get("engine.runs_total").value(
            status="failed") == 1.0

    def test_deadline_cancel_counts_cancelled_outcomes(self):
        spans = SpanTracer()
        faults = FaultInjector().delay("first", 0.1).forward_to(spans)

        def stage(key):
            def run(s):
                s[key] = True
                return key
            return run

        pipeline = DecisionPipeline()
        pipeline.add_data("first", stage("a"), reads=(), writes=("a",))
        pipeline.add_governance("second", stage("b"),
                                reads=("a",), writes=("b",))
        pipeline.add_decision("third", stage("c"),
                              reads=("b",), writes=("c",))
        registry = self._run(pipeline, faults,
                             expect=RunDeadlineExceeded, deadline=0.03)
        outcomes = registry.get("engine.stage_outcomes_total")
        for name in ("first", "second", "third"):
            assert outcomes.value(stage=name, status="cancelled") == 1.0
            assert spans.span(name).status == "cancelled"
        assert spans.span("run", kind="run").status == "cancelled"
        assert registry.get("engine.runs_total").value(
            status="deadline_exceeded") == 1.0

    def test_queue_wait_histogram_observes_every_stage(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("a", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        pipeline.add_decision("b", lambda s: s.update(y=s["x"]) or "ok",
                              reads=("x",), writes=("y",))
        with use_registry() as registry:
            pipeline.run()
        waits = registry.get("engine.stage_queue_wait_seconds")
        assert waits.count(stage="a") == 1
        assert waits.count(stage="b") == 1
