"""Distribution-shift detection for streaming series (§II-C robustness).

Distribution shifts — new roads, demand growth, regime changes — break
models trained on yesterday's distribution.  Detecting the shift is the
trigger for the continual-learning and recalibration machinery
(:mod:`.continual`, QCore).  Two standard detectors:

* :class:`KsDriftDetector` — two-sample Kolmogorov-Smirnov between a
  reference window and the recent window (distributional change of any
  kind);
* :class:`PageHinkleyDetector` — sequential mean-shift detection with
  O(1) state, the classic streaming change-point test.

:class:`DriftTriggeredRefit` turns a detector into the streaming
re-fit gate incremental pipelines need (see ``docs/STREAMING.md``):
feed it forecast residuals tick by tick and it invokes a re-fit
callback — rate-limited by a cooldown — exactly when the detector
alarms, publishing ``analytics.drift_refits_total`` so re-training
churn is visible next to the engine metrics.
"""

from __future__ import annotations

import numpy as np

from ..._validation import check_positive

__all__ = ["DriftTriggeredRefit", "KsDriftDetector",
           "PageHinkleyDetector"]


class KsDriftDetector:
    """Two-sample KS test between reference and recent data.

    Parameters
    ----------
    reference:
        Sample from the training distribution.
    p_threshold:
        Drift is flagged when the KS p-value drops below this.
    """

    def __init__(self, reference, p_threshold=0.01):
        reference = np.asarray(reference, dtype=float).ravel()
        if len(reference) < 5:
            raise ValueError("reference needs at least 5 observations")
        if not 0.0 < p_threshold < 1.0:
            raise ValueError("p_threshold must be in (0, 1)")
        self.reference = reference
        self.p_threshold = float(p_threshold)

    def check(self, recent):
        """Test a recent sample; returns ``(drifted, p_value)``."""
        recent = np.asarray(recent, dtype=float).ravel()
        if len(recent) < 5:
            raise ValueError("recent needs at least 5 observations")
        # Deferred: scipy.stats dominates ``import repro`` otherwise.
        from scipy import stats

        statistic = stats.ks_2samp(self.reference, recent)
        return bool(statistic.pvalue < self.p_threshold), float(
            statistic.pvalue)


class PageHinkleyDetector:
    """Sequential Page-Hinkley mean-shift detector.

    Parameters
    ----------
    delta:
        Magnitude of tolerated fluctuation (in target units).
    threshold:
        Alarm level of the cumulative statistic.
    """

    def __init__(self, delta=0.05, threshold=5.0):
        self.delta = float(check_positive(delta, "delta"))
        self.threshold = float(check_positive(threshold, "threshold"))
        self.reset()

    def reset(self):
        self._count = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0

    def update(self, value):
        """Feed one observation; returns True when a shift is detected.

        The detector resets itself after each alarm so it can flag
        subsequent shifts.
        """
        value = float(value)
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._cumulative += value - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        if self._cumulative - self._minimum > self.threshold:
            self.reset()
            return True
        return False

    def scan(self, values):
        """Run over a sequence; returns the indices of detected shifts."""
        alarms = []
        for index, value in enumerate(np.asarray(values, dtype=float)):
            if self.update(value):
                alarms.append(index)
        return alarms


class DriftTriggeredRefit:
    """Streaming re-fit gate: alarm from a detector triggers a re-fit.

    Feed forecast residuals (or any monitored scalar) with
    :meth:`observe` / :meth:`observe_many`; when the wrapped detector
    alarms — and at least ``cooldown`` observations have passed since
    the last re-fit — the gate calls ``refit()`` (when given) and
    reports the trigger.  State is O(1) and plain data, so the gate
    can live in an incremental stage's carried delta.

    Parameters
    ----------
    detector:
        Any object with a ``update(value) -> bool`` method; default a
        fresh :class:`PageHinkleyDetector`.
    refit:
        Optional zero-argument callable invoked on each trigger (a
        model's re-fit closure).  Exceptions propagate — a failing
        re-fit is a real failure, not something to swallow.
    cooldown:
        Minimum observations between two triggers; alarms inside the
        cooldown window are suppressed (the detector has already
        self-reset).  Default 0: every alarm triggers.
    """

    def __init__(self, detector=None, *, refit=None, cooldown=0):
        if detector is None:
            detector = PageHinkleyDetector()
        if not callable(getattr(detector, "update", None)):
            raise TypeError(
                "detector must expose update(value) -> bool")
        if refit is not None and not callable(refit):
            raise TypeError("refit must be callable or None")
        cooldown = int(cooldown)
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.detector = detector
        self.refit = refit
        self.cooldown = cooldown
        self.observed = 0
        self.refits = 0
        self.suppressed = 0
        self._last_trigger = None

    @staticmethod
    def _count_refit():
        from ...observability.metrics import get_registry

        get_registry().counter(
            "analytics.drift_refits_total",
            "Model re-fits triggered by drift detection").inc()

    def observe(self, value):
        """Feed one observation; returns True when a re-fit fired."""
        self.observed += 1
        if not self.detector.update(value):
            return False
        if (self._last_trigger is not None
                and self.observed - self._last_trigger < self.cooldown):
            self.suppressed += 1
            return False
        self._last_trigger = self.observed
        self.refits += 1
        self._count_refit()
        if self.refit is not None:
            self.refit()
        return True

    def observe_many(self, values):
        """Feed a sequence; returns indices that triggered a re-fit."""
        triggers = []
        for index, value in enumerate(np.asarray(values, dtype=float)):
            if self.observe(value):
                triggers.append(index)
        return triggers

    def __repr__(self):
        return (f"DriftTriggeredRefit(observed={self.observed}, "
                f"refits={self.refits}, cooldown={self.cooldown})")
