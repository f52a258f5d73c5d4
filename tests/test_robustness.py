"""Tests for drift detection, continual learning, adaptation, pathways."""

import numpy as np
import pytest

from repro import TimeSeries
from repro.datasets import seasonal_series
from repro.analytics.forecasting import ARForecaster
from repro.analytics.metrics import mae
from repro.analytics.robustness import (
    DomainAdaptedRegressor,
    KsDriftDetector,
    MultiScalePathwaysForecaster,
    PageHinkleyDetector,
    ReplayContinualForecaster,
    density_ratio_weights,
    evaluate_forgetting,
    weighted_ridge,
)


class TestDrift:
    def test_ks_flags_shift_only(self):
        rng = np.random.default_rng(0)
        detector = KsDriftDetector(rng.normal(0, 1, 400))
        same, p_same = detector.check(rng.normal(0, 1, 300))
        shifted, p_shifted = detector.check(rng.normal(2, 1, 300))
        assert not same and shifted
        assert p_shifted < p_same

    def test_ks_validation(self):
        with pytest.raises(ValueError):
            KsDriftDetector([1.0, 2.0])
        detector = KsDriftDetector(np.zeros(10) + np.arange(10))
        with pytest.raises(ValueError):
            detector.check([1.0])

    def test_page_hinkley_detects_mean_shift(self):
        rng = np.random.default_rng(1)
        stream = np.concatenate([rng.normal(0, 0.3, 300),
                                 rng.normal(4, 0.3, 100)])
        alarms = PageHinkleyDetector(delta=0.1, threshold=8.0).scan(stream)
        assert alarms
        assert 300 <= alarms[0] <= 320

    def test_page_hinkley_quiet_on_stationary(self):
        rng = np.random.default_rng(2)
        alarms = PageHinkleyDetector(delta=0.1, threshold=8.0).scan(
            rng.normal(0, 0.3, 500))
        assert alarms == []

    def test_page_hinkley_resets_after_alarm(self):
        rng = np.random.default_rng(3)
        stream = np.concatenate([
            rng.normal(0, 0.3, 200), rng.normal(4, 0.3, 200),
            rng.normal(8, 0.3, 200),
        ])
        alarms = PageHinkleyDetector(delta=0.1, threshold=8.0).scan(stream)
        assert len(alarms) >= 2


def make_regime(level, seed, length=400):
    base = seasonal_series(length, amplitude=2.0,
                           rng=np.random.default_rng(seed))
    return TimeSeries(base.values + level)


class TestContinual:
    @pytest.fixture(scope="class")
    def regimes(self):
        levels = [0.0, 6.0, -4.0, 10.0]
        return [(make_regime(level, 10 + i), make_regime(level, 20 + i))
                for i, level in enumerate(levels)]

    @staticmethod
    def factory(strategy):
        return ReplayContinualForecaster(
            lambda: ARForecaster(n_lags=12, seasonal_period=96),
            strategy=strategy, rng=np.random.default_rng(0))

    def test_replay_forgets_less_than_finetune(self, regimes):
        """The claim of [37]: replay fights catastrophic forgetting."""
        finetune = evaluate_forgetting(
            lambda: self.factory("finetune"), regimes)
        replay = evaluate_forgetting(
            lambda: self.factory("replay"), regimes)

        def forgetting(scores):
            return float(np.nanmean(
                scores[-1, :-1] - np.diag(scores)[:-1]))

        assert forgetting(replay) < forgetting(finetune)

    def test_retrain_is_upper_bound(self, regimes):
        replay = evaluate_forgetting(lambda: self.factory("replay"),
                                     regimes)
        retrain = evaluate_forgetting(lambda: self.factory("retrain"),
                                      regimes)
        assert np.nanmean(retrain[-1]) <= np.nanmean(replay[-1]) + 0.1

    def test_score_matrix_shape(self, regimes):
        scores = evaluate_forgetting(lambda: self.factory("replay"),
                                     regimes[:2])
        assert scores.shape == (2, 2)
        assert np.isnan(scores[0, 1])
        assert np.isfinite(scores[1, 0])

    def test_buffer_bounded(self, regimes):
        learner = self.factory("replay")
        for train, _ in regimes * 3:
            learner.observe(train)
        assert len(learner._buffer) <= learner.buffer_size

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            ReplayContinualForecaster(lambda: ARForecaster(),
                                      strategy="magic")

    def test_predict_before_observe(self):
        learner = self.factory("replay")
        with pytest.raises(RuntimeError):
            learner.predict(3)


class TestAdaptation:
    def test_density_ratio_upweights_targetlike(self):
        rng = np.random.default_rng(4)
        source = np.vstack([rng.normal(0, 1, size=(300, 2)),
                            rng.normal(4, 1, size=(300, 2))])
        target = rng.normal(4, 1, size=(100, 2))
        weights = density_ratio_weights(source, target)
        assert weights[300:].mean() > 2 * weights[:300].mean()

    def test_weighted_ridge_respects_weights(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 1))
        y_a = 2.0 * X[:, 0]
        y_b = -2.0 * X[:, 0]
        X2 = np.vstack([X, X])
        y = np.concatenate([y_a, y_b])
        weights = np.concatenate([np.ones(200), np.zeros(200)])
        coefficients, _ = weighted_ridge(X2, y, weights, alpha=1e-6)
        assert coefficients[0, 0] == pytest.approx(2.0, abs=0.05)

    def test_weighted_ridge_validation(self):
        with pytest.raises(ValueError):
            weighted_ridge(np.zeros((5, 2)), np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            weighted_ridge(np.zeros((5, 2)), np.zeros(5), -np.ones(5))

    def test_adaptation_helps_under_covariate_shift(self):
        rng = np.random.default_rng(6)
        # Source mixes two dynamics; target only exhibits the second.
        n = 800
        regime_a = np.sin(np.arange(n // 2) * 0.8) * 3.0
        regime_b = np.sin(np.arange(n // 2) * 0.2) * 1.0
        source = np.concatenate([regime_a, regime_b])
        source += rng.normal(0, 0.1, n)
        target = np.sin((np.arange(60) + 7) * 0.2) * 1.0 \
            + rng.normal(0, 0.1, 60)
        test = np.sin((np.arange(300) + 31) * 0.2) * 1.0 \
            + rng.normal(0, 0.1, 300)
        adapted = DomainAdaptedRegressor(n_lags=6).fit(source, target,
                                                       adapt=True)
        pooled = DomainAdaptedRegressor(n_lags=6).fit(source, target,
                                                      adapt=False)
        pred_a, truth_a = adapted.predict_one_step(test)
        pred_p, truth_p = pooled.predict_one_step(test)
        assert mae(truth_a, pred_a) <= mae(truth_p, pred_p) * 1.05

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            DomainAdaptedRegressor().predict_one_step(np.zeros(30))


class TestMultiScale:
    @pytest.fixture(scope="class")
    def mixed(self):
        rng = np.random.default_rng(7)
        t = np.arange(1600)
        values = (np.sin(2 * np.pi * t / 168) * 2.0
                  + np.sin(2 * np.pi * t / 24) * 1.0
                  + t * 0.003 + rng.normal(0, 0.25, len(t)))
        return TimeSeries(values)

    def test_beats_single_scale_on_mixed_periods(self, mixed):
        """E14's claim: multi-scale pathways outperform a single-scale
        model when the signal mixes resolutions."""
        train, test = mixed.split(0.9)
        pathways = MultiScalePathwaysForecaster(
            scales=(6, 36, 168)).fit(train)
        single = ARForecaster(n_lags=48).fit(train)
        assert mae(test.values, pathways.predict(len(test))) < \
            mae(test.values, single.predict(len(test)))

    def test_components_sum_to_series(self, mixed):
        model = MultiScalePathwaysForecaster(scales=(6, 36, 168))
        components = model._decompose(mixed.values)
        assert np.allclose(sum(components), mixed.values)

    def test_adaptive_flags_exist(self, mixed):
        train, _ = mixed.split(0.9)
        model = MultiScalePathwaysForecaster(scales=(6, 36)).fit(train)
        assert len(model.pathway_uses_model_) == 3

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            MultiScalePathwaysForecaster(scales=(1, 4))
        with pytest.raises(ValueError):
            MultiScalePathwaysForecaster(scales=(24, 6))
        with pytest.raises(ValueError):
            MultiScalePathwaysForecaster(scales=())

    def test_evaluate_pathways_returns_per_scale(self, mixed):
        model = MultiScalePathwaysForecaster(scales=(6, 36)).fit(
            mixed.slice(0, 1200))
        diagnostics = model.evaluate_pathways(mixed.slice(0, 1200), 50)
        assert len(diagnostics) == 3
