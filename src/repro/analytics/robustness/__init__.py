"""Robustness: drift detection, replay-based continual learning,
importance-weighted domain adaptation, and multi-scale pathways."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "adaptation": (
        "DomainAdaptedRegressor", "density_ratio_weights", "weighted_ridge",
    ),
    "continual": ("ReplayContinualForecaster", "evaluate_forgetting"),
    "drift": ("DriftTriggeredRefit", "KsDriftDetector", "PageHinkleyDetector"),
    "multiscale": ("MultiScalePathwaysForecaster",),
})
