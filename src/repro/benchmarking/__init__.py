"""Unified, fair benchmarking of analytics methods (FoundTS-style)
plus the shared latency-summary harness used by serving benchmarks."""

from .detection import DetectionLeaderboard
from .harness import ForecastingLeaderboard
from .latency import summarize_latencies

__all__ = [
    "DetectionLeaderboard",
    "ForecastingLeaderboard",
    "summarize_latencies",
]
