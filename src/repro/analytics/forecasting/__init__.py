"""Forecasting: classical, linear, graph, probabilistic, ensembles."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "base": ("Forecaster", "rolling_origin_evaluation"),
    "classical": (
        "DriftForecaster", "HoltForecaster", "HoltWintersForecaster",
        "NaiveForecaster", "SeasonalNaiveForecaster",
        "SimpleExponentialSmoothing",
    ),
    "direct": ("DirectForecaster",),
    "ensemble": ("EnsembleForecaster",),
    "graph": ("GraphFilterForecaster",),
    "linear": (
        "ARForecaster", "ExogenousForecaster", "VARForecaster", "ridge_fit",
    ),
    "probabilistic": ("GaussianForecaster", "QuantileForecaster"),
})
