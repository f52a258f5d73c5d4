"""Explainability: post-hoc localization metrics, feature importance,
interpretable surrogates, and temporal association graphs."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "associations": ("granger_matrix", "lagged_correlation_graph"),
    "importance": ("SparseSurrogate", "permutation_importance"),
    "posthoc": ("explanation_accuracy", "inject_channel_anomalies"),
})
