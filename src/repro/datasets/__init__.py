"""Synthetic workload generators.

Every generator is seeded and replaces a proprietary or hardware-bound
data source used by the paper's referenced systems (see DESIGN.md,
"Substitutions").
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "anomalies": ("inject_anomalies", "seasonal_series"),
    "cloud": ("cloud_demand_dataset",),
    "traffic": (
        "TrafficSimulator", "diurnal_profile", "traffic_speed_dataset",
    ),
    "trajectories": ("TrajectoryGenerator", "simulate_trip"),
    "waves": ("sparse_buoy_observations", "wave_field_dataset"),
})
