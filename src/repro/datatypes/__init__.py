"""Data foundations (paper §II-A): the four data types of Definitions 1-4
plus the road-network substrate the running examples live on."""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "correlated": ("CorrelatedTimeSeries",),
    "image_sequence": ("ImageSequence",),
    "roadnetwork": ("RoadNetwork",),
    "timeseries": ("TimeSeries",),
    "trajectory": ("GpsPoint", "Trajectory"),
})
