"""Unified, fair benchmarking of analytics methods (FoundTS-style)
plus the shared latency-summary harness used by serving benchmarks."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "detection": ("DetectionLeaderboard",),
    "harness": ("ForecastingLeaderboard",),
    "latency": ("summarize_latencies",),
})
