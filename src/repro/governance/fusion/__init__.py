"""Multi-modal fusion: alignment (map matching, embeddings) and
feature-based fusion."""

from ... import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "alignment": ("CcaAligner", "procrustes_align", "retrieval_accuracy"),
    "features": (
        "add_time_features", "align_series", "fuse_series", "weather_series",
    ),
    "map_matching": ("HmmMapMatcher",),
})
