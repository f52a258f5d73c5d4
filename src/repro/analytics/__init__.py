"""Data analytics (paper Sec. II-C): forecasting, anomaly detection and
classification, organized around the five desired characteristics --
automation, generality, robustness, explainability, and resource
efficiency."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "anomaly": ("anomaly",),
    "automation": ("automation",),
    "classification": ("classification",),
    "efficiency": ("efficiency",),
    "explainability": ("explainability",),
    "forecasting": ("forecasting",),
    "generative": ("generative",),
    "metrics": ("metrics",),
    "representation": ("representation",),
    "robustness": ("robustness",),
})
