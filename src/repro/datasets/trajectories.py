"""Trajectory simulation: GPS fleets over a road network.

Replaces the paper's proprietary vehicle fleets.  Drivers pick routes by
minimizing a personal weighted combination of edge criteria (a
preference vector, as in the personalized-routing line of work
[54, 55]), drive them under the stochastic travel times of
:class:`~repro.datasets.traffic.TrafficSimulator`, and emit GPS samples
at a fixed rate with optional measurement noise — producing exactly the
noisy, sparse inputs that map matching [17] and learning-based routing
[56] consume.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive, ensure_rng
from ..datatypes import Trajectory
from .traffic import TrafficSimulator

__all__ = ["simulate_trip", "TrajectoryGenerator"]


def simulate_trip(network, path, edge_times, *, start_time=0.0,
                  sample_interval=1.0):
    """Drive a node ``path`` with the given per-edge times and emit GPS.

    Positions are interpolated along each edge at constant speed; one
    sample is emitted every ``sample_interval`` time units, plus the trip
    endpoints.  The clocks are running sums (``np.add.accumulate`` adds
    in order, as a loop would), and each sample is placed on the first
    edge that ends after it.  Node positions come from the network's
    position array, and the trajectory is built from those columns
    directly.

    Returns
    -------
    Trajectory
        Noise-free ground-truth trajectory.
    """
    edges = network.path_edges(path)
    if len(edge_times) != len(edges):
        raise ValueError(
            f"expected {len(edges)} edge times, got {len(edge_times)}"
        )
    durations = np.asarray(edge_times, dtype=float)
    if not (durations > 0).all():
        raise ValueError("edge times must be positive")
    if not np.isfinite(durations).all():
        raise ValueError("edge times must be finite")
    check_positive(sample_interval, "sample_interval")
    start = float(start_time)
    clocks = np.add.accumulate(np.concatenate(([start], durations)))
    end = float(clocks[-1])
    count = int((end - start) / sample_interval) + 2
    samples = np.full(count + 1, float(sample_interval))
    samples[0] = start
    samples = np.add.accumulate(samples)[1:]
    samples = samples[samples < end]
    edge = np.searchsorted(clocks[1:], samples, side="right")
    fractions = np.minimum(np.maximum(
        (samples - clocks[edge]) / durations[edge], 0.0), 1.0)
    xy = network._xy[[network._index[node] for node in path]]
    along = xy[edge] + fractions[:, None] * (xy[edge + 1] - xy[edge])
    return Trajectory._from_columns(
        np.concatenate([xy[:1], along, xy[-1:]]),
        np.concatenate([[start], samples, [end]]))


class TrajectoryGenerator:
    """Simulate a fleet of drivers with personal routing preferences.

    Parameters
    ----------
    simulator:
        The stochastic travel-time model (owns the road network).
    preference_noise:
        Std-dev of the log-normal perturbation drivers apply to edge
        costs when planning, so different drivers (and repeated trips)
        explore different reasonable routes.
    """

    def __init__(self, simulator, *, preference_noise=0.15, rng=None):
        if not isinstance(simulator, TrafficSimulator):
            raise TypeError("simulator must be a TrafficSimulator")
        self.simulator = simulator
        self.network = simulator.network
        self.preference_noise = float(preference_noise)
        self._rng = ensure_rng(rng)

    def random_od_pair(self, *, min_hops=3, max_tries=200):
        """An origin-destination pair at least ``min_hops`` apart."""
        nodes = self.network.nodes()
        for _ in range(max_tries):
            origin, destination = self._rng.choice(len(nodes), size=2,
                                                   replace=False)
            origin, destination = nodes[int(origin)], nodes[int(destination)]
            try:
                path = self.network.shortest_path(origin, destination)
            except Exception:  # unreachable pair in a sparse network
                continue
            if len(path) - 1 >= min_hops:
                return origin, destination
        raise RuntimeError("could not find a sufficiently distant OD pair")

    def plan_route(self, origin, destination, *, perturb=True):
        """A driver's route choice: shortest path under perturbed costs.

        One cost per edge, drawn in edge order.  An unknown node raises
        :class:`KeyError`, no path :class:`ValueError`.
        """
        costs = []
        for u, v in self.network.edges():
            cost = self.network.edge_length(u, v)
            if perturb and self.preference_noise > 0:
                cost *= float(np.exp(self._rng.normal(
                    0.0, self.preference_noise)))
            costs.append(cost)
        return self.network._shortest(origin, destination, costs)

    def generate(self, n_trips, *, departure_minute=8 * 60,
                 sample_interval=0.5, noise_sigma=0.0, min_hops=3):
        """Simulate ``n_trips`` trips.

        Returns
        -------
        list of (path, Trajectory)
            The ground-truth node path and the (possibly noisy) GPS trace
            for each trip.
        """
        trips = []
        for _ in range(int(n_trips)):
            origin, destination = self.random_od_pair(min_hops=min_hops)
            path = self.plan_route(origin, destination)
            edges = self.network.path_edges(path)
            times = self.simulator.sample_edge_times(
                edges, departure_minute, rng=self._rng
            )
            trajectory = simulate_trip(
                self.network, path, times,
                start_time=float(departure_minute),
                sample_interval=sample_interval,
            )
            if noise_sigma > 0:
                trajectory = trajectory.with_noise(noise_sigma, self._rng)
            trips.append((path, trajectory))
        return trips

    def generate_on_paths(self, paths, *, departure_minute=8 * 60,
                          sample_interval=0.5, noise_sigma=0.0):
        """Simulate one trip per given node path (for path-centric stats)."""
        trips = []
        for path in paths:
            edges = self.network.path_edges(path)
            times = self.simulator.sample_edge_times(
                edges, departure_minute, rng=self._rng
            )
            trajectory = simulate_trip(
                self.network, path, times,
                start_time=float(departure_minute),
                sample_interval=sample_interval,
            )
            if noise_sigma > 0:
                trajectory = trajectory.with_noise(noise_sigma, self._rng)
            trips.append((path, trajectory))
        return trips
