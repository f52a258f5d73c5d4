"""Client-side latency summarization shared by load generators and
benchmarks.

One canonical way to turn raw per-request latency samples into the
percentile summary every harness reports (the ROADMAP's shared
load-gen/latency-histogram harness): the closed-loop load generator
of the serving tests and E28 (``tests/loadgen.py``) folds its client
samples through :func:`summarize_latencies`, and the
E28/E29 benchmarks reuse the same summary for their timed phases, so
"p99" always means the same estimator everywhere.
"""

from __future__ import annotations

import numpy as np

__all__ = ["summarize_latencies"]


def summarize_latencies(samples):
    """Exact percentiles/mean/max of raw latency samples (seconds).

    Returns the JSON-ready dict benchmark artifacts embed:
    ``n_samples``, ``p50``, ``p90``, ``p99``, ``mean`` and ``max``.
    Client-side samples are summarized exactly (linear-interpolated
    percentiles over the raw values) — unlike the server's bucketed
    ``serve.latency_seconds`` histogram, whose
    :meth:`Histogram.quantile` estimates the benchmarks cross-check
    against this.  An empty sequence summarizes to all zeros, so
    callers need no special case for zero-traffic runs.
    """
    samples = np.asarray(list(samples), dtype=float)
    if len(samples) == 0:
        return {"n_samples": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
                "mean": 0.0, "max": 0.0}
    p50, p90, p99 = np.percentile(samples, [50, 90, 99])
    return {"n_samples": int(len(samples)), "p50": float(p50),
            "p90": float(p90), "p99": float(p99),
            "mean": float(samples.mean()), "max": float(samples.max())}
