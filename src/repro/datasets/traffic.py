"""Synthetic traffic workloads.

The paper's systems are evaluated on real road-sensor deployments and
GPS fleets.  This module replaces those proprietary traces with seeded
generators that preserve the statistical structure the algorithms
exploit:

* **diurnal + weekly periodicity** (morning/evening rush hours, lighter
  weekends),
* **spatial correlation** between nearby sensors (propagated through the
  sensor graph),
* **stochastic congestion events** that depress speeds over contiguous
  time windows and neighbouring sensors,
* **correlated edge travel times**: a per-trip latent congestion factor
  shared by edges along a route, which is exactly the correlation the
  path-centric uncertainty paradigm [4] captures and the edge-centric
  paradigm [15] ignores.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import check_positive, ensure_rng
from ..datatypes import RoadNetwork

__all__ = [
    "diurnal_profile",
    "traffic_speed_dataset",
    "TrafficSimulator",
]

#: Minutes in a day, used by all profile helpers.
_DAY_MINUTES = 24 * 60


def diurnal_profile(minute_of_day, *, rush_depth=0.45):
    """Relative traffic-speed factor in ``(0, 1]`` for a minute of day.

    Two Gaussian rush-hour dips (8:00 and 17:30) on a free-flow baseline.
    Vectorized over ``minute_of_day``.
    """
    minutes = np.asarray(minute_of_day, dtype=float) % _DAY_MINUTES
    morning = np.exp(-0.5 * ((minutes - 8 * 60) / 75.0) ** 2)
    evening = np.exp(-0.5 * ((minutes - 17.5 * 60) / 90.0) ** 2)
    return 1.0 - rush_depth * np.maximum(morning, evening)


def _diurnal_factor(minute):
    """``float(diurnal_profile(minute))`` for one minute, on scalars.

    The same operations as the 0-d array path -- ``%``, ``**`` and
    ``np.exp`` of a scalar -- without the array round trips, so the
    bits are equal (a dense sweep in the tests pins this); ``math.exp``
    would differ in the last ulp at some minutes.
    """
    minutes = float(minute) % _DAY_MINUTES
    morning = np.exp(-0.5 * ((minutes - 8 * 60) / 75.0) ** 2)
    evening = np.exp(-0.5 * ((minutes - 17.5 * 60) / 90.0) ** 2)
    return float(1.0 - 0.45 * max(morning, evening))


def traffic_speed_dataset(
    n_sensors=25,
    n_days=7,
    interval_minutes=15,
    *,
    free_flow_speed=60.0,
    noise_scale=2.0,
    n_events=None,
    rng=None,
):
    """Generate a correlated traffic-speed dataset.

    Sensors live on a ring-of-neighbourhoods graph: each sensor is
    connected to its two ring neighbours plus one long-range link, a
    cheap stand-in for a road-sensor deployment.  Speeds follow the
    diurnal/weekly profile, are spatially smoothed over the graph, and
    are hit by random congestion events.

    Returns
    -------
    CorrelatedTimeSeries
        Shape ``(n_days * 24 * 60 / interval_minutes, n_sensors)``.
    """
    if n_sensors < 3:
        raise ValueError("need at least 3 sensors")
    check_positive(n_days, "n_days")
    check_positive(interval_minutes, "interval_minutes")
    rng = ensure_rng(rng)

    steps_per_day = _DAY_MINUTES // int(interval_minutes)
    n_steps = int(n_days * steps_per_day)
    minutes = (np.arange(n_steps) * interval_minutes) % _DAY_MINUTES
    day_index = (np.arange(n_steps) * interval_minutes) // _DAY_MINUTES
    weekend = (day_index % 7) >= 5

    # Sensor graph: ring + sparse long-range links.
    adjacency = np.zeros((n_sensors, n_sensors))
    for i in range(n_sensors):
        j = (i + 1) % n_sensors
        adjacency[i, j] = adjacency[j, i] = 1.0
    n_links = max(1, n_sensors // 5)
    for _ in range(n_links):
        i, j = rng.choice(n_sensors, size=2, replace=False)
        adjacency[i, j] = adjacency[j, i] = 0.5

    profile = diurnal_profile(minutes)
    profile = np.where(weekend, 1.0 - 0.4 * (1.0 - profile), profile)

    # Per-sensor base speeds and idiosyncratic noise smoothed over graph.
    base = free_flow_speed * rng.uniform(0.85, 1.15, size=n_sensors)
    noise = rng.normal(0.0, noise_scale, size=(n_steps, n_sensors))
    degree = adjacency.sum(axis=1, keepdims=True)
    smoothing = adjacency / np.maximum(degree, 1.0)
    for _ in range(2):  # two rounds of neighbour averaging -> spatial corr.
        noise = 0.5 * noise + 0.5 * noise @ smoothing.T

    speeds = profile[:, None] * base[None, :] + noise

    # Congestion events: localized multiplicative slowdowns.
    if n_events is None:
        n_events = max(1, int(n_days * 2))
    for _ in range(int(n_events)):
        center = int(rng.integers(0, n_sensors))
        start = int(rng.integers(0, max(1, n_steps - steps_per_day // 4)))
        duration = int(rng.integers(steps_per_day // 12, steps_per_day // 4))
        severity = rng.uniform(0.3, 0.6)
        affected = {center}
        affected.update(np.flatnonzero(adjacency[center] > 0).tolist())
        for sensor in affected:
            weight = 1.0 if sensor == center else 0.5
            stop = min(start + duration, n_steps)
            speeds[start:stop, sensor] *= 1.0 - weight * severity

    speeds = np.clip(speeds, 3.0, None)
    timestamps = np.arange(n_steps, dtype=float) * interval_minutes
    # Deferred: ``TrafficSimulator`` alone needs no series type.
    from ..datatypes import CorrelatedTimeSeries

    return CorrelatedTimeSeries(speeds, adjacency=adjacency,
                                timestamps=timestamps)


class TrafficSimulator:
    """Stochastic, time-varying travel times on a :class:`RoadNetwork`.

    Ground-truth generative model (per trip departing at time ``t``):

    .. math::

        \\tau_{e} = \\frac{\\ell_e}{v_e \\cdot f(t)}
                    \\cdot \\exp(\\sigma_c z + \\sigma_i \\epsilon_e)

    where ``f(t)`` is the diurnal profile, ``z ~ N(0,1)`` is a *trip-level*
    congestion factor shared by every edge on the route, and
    ``eps_e ~ N(0,1)`` is per-edge noise.  The shared ``z`` makes edge
    travel times positively correlated along a path — the phenomenon that
    separates the edge-centric and path-centric uncertainty paradigms
    (experiments E5 and E19).

    Parameters
    ----------
    network:
        The road network to simulate on.
    sigma_correlated / sigma_independent:
        Log-scale standard deviations of the shared and per-edge factors.
    speed_range:
        Free-flow speed (distance units per time unit) is drawn uniformly
        per edge from this range.
    """

    def __init__(self, network, *, sigma_correlated=0.25,
                 sigma_independent=0.15, speed_range=(0.8, 1.2), rng=None):
        if not isinstance(network, RoadNetwork):
            raise TypeError("network must be a RoadNetwork")
        self.network = network
        self.sigma_correlated = float(sigma_correlated)
        self.sigma_independent = float(sigma_independent)
        self._rng = ensure_rng(rng)
        low, high = speed_range
        if not 0 < low <= high:
            raise ValueError(f"invalid speed_range {speed_range!r}")
        self._speeds = {}
        self._volatility = {}
        for u, v in network.edges():
            self._speeds[(u, v)] = float(self._rng.uniform(low, high))
            self._volatility[(u, v)] = 1.0

    def set_edge_profile(self, u, v, *, speed=None, volatility=None):
        """Override an edge's free-flow speed and/or noise multiplier.

        A ``volatility`` above 1 makes the edge's travel time more
        dispersed (an accident-prone arterial: fast on average, risky);
        below 1 makes it more reliable.  Used to build heterogeneous
        networks for the routing experiments.
        """
        if (u, v) not in self._speeds:
            raise KeyError(f"no edge ({u!r}, {v!r})")
        if speed is not None:
            if speed <= 0:
                raise ValueError("speed must be positive")
            self._speeds[(u, v)] = float(speed)
        if volatility is not None:
            if volatility <= 0:
                raise ValueError("volatility must be positive")
            self._volatility[(u, v)] = float(volatility)

    def free_flow_speed(self, u, v):
        """The edge's base speed before congestion effects."""
        return self._speeds[(u, v)]

    def mean_travel_time(self, u, v, departure_minute=12 * 60):
        """Expected travel time of an edge at a given departure time."""
        factor = _diurnal_factor(departure_minute)
        length = self.network.edge_length(u, v)
        base = length / (self._speeds[(u, v)] * factor)
        # E[lognormal] correction so the mean matches sampled times.
        scale = self._volatility[(u, v)]
        total_var = scale ** 2 * (self.sigma_correlated ** 2
                                  + self.sigma_independent ** 2)
        return base * math.exp(0.5 * total_var)

    def sample_edge_times(self, edges, departure_minute=12 * 60, rng=None):
        """Sample correlated travel times for a sequence of edges.

        Returns an array of per-edge times drawn with one shared trip
        factor, i.e. one realization of a trip along ``edges``.  The
        trip factor ``z`` and every per-edge ``eps`` come from one
        ``rng.normal(size=len(edges) + 1)`` draw (the same stream as
        ``z`` followed by one scalar draw per edge); only the diurnal
        factor, which depends on the running clock, is computed edge by
        edge.
        """
        rng = self._rng if rng is None else ensure_rng(rng)
        draws = rng.normal(size=len(edges) + 1)
        scales = np.array([self._volatility[(u, v)] for u, v in edges])
        noise = map(math.exp, (scales * (
            self.sigma_correlated * draws[0]
            + self.sigma_independent * draws[1:])).tolist())
        times = []
        minute = float(departure_minute)
        for (u, v), lognormal in zip(edges, noise):
            base = self.network.edge_length(u, v) / (
                self._speeds[(u, v)] * _diurnal_factor(minute))
            times.append(base * lognormal)
            minute += times[-1]
        return np.array(times, dtype=float)

    def sample_path_time(self, path, departure_minute=12 * 60, rng=None):
        """Total travel time of one simulated trip along a node path."""
        edges = self.network.path_edges(path)
        return float(self.sample_edge_times(edges, departure_minute, rng).sum())

    def sample_path_times(self, path, n_samples, departure_minute=12 * 60,
                          rng=None):
        """Repeated independent trips along the same path."""
        rng = self._rng if rng is None else ensure_rng(rng)
        return np.array([
            self.sample_path_time(path, departure_minute, rng)
            for _ in range(int(n_samples))
        ])
