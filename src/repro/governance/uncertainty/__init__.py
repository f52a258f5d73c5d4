"""Uncertainty quantification: cost distributions and the edge-centric
vs. path-centric travel-time paradigms."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "distributions": ("GaussianMixture", "Histogram"),
    "travel_time": (
        "EdgeCentricModel", "PathCentricModel", "TimeVaryingDistribution",
        "wasserstein_distance",
    ),
})
