"""Time-series classification: DTW, random kernels, and LightTS-style
adaptive ensemble distillation."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "distance": ("KnnDtwClassifier", "dtw_distance"),
    "lightts": ("LightTsDistiller",),
    "rocket": ("RocketClassifier", "RocketFeatures"),
})
