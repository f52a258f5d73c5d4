"""Missing-value imputation: temporal, spatial, and spatio-temporal."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "spatial": (
        "GcnCompleter", "LabelPropagationCompleter", "line_graph_adjacency",
    ),
    "spatiotemporal": ("ODMatrixCompleter", "complete_field"),
    "temporal": (
        "KalmanImputer", "StreamingImputer", "backcast", "impute_linear",
        "impute_locf", "impute_seasonal",
    ),
})
