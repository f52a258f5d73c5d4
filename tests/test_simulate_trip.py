"""``simulate_trip`` against the per-sample loop it replaced.

The array version computes its clocks with ``np.add.accumulate`` and
places samples with ``searchsorted``; ``simulate_trip_loop`` below is
the loop it replaced, kept here as the oracle.  The two must agree to
the bit, including samples landing exactly on an edge boundary,
sample intervals longer than the whole trip and non-zero start times.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork
from repro.datasets import simulate_trip
from repro.datatypes import GpsPoint, Trajectory


def simulate_trip_loop(network, path, edge_times, *, start_time=0.0,
                       sample_interval=1.0):
    """The sample-at-a-time loop: one ``point_on_edge`` per sample."""
    edges = network.path_edges(path)
    if len(edge_times) != len(edges):
        raise ValueError(
            f"expected {len(edges)} edge times, got {len(edge_times)}"
        )
    points = [GpsPoint(*network.position(path[0]), start_time)]
    clock = float(start_time)
    next_sample = clock + sample_interval
    for (u, v), duration in zip(edges, edge_times):
        if duration <= 0:
            raise ValueError("edge times must be positive")
        edge_end = clock + duration
        while next_sample < edge_end:
            fraction = (next_sample - clock) / duration
            x, y = network.point_on_edge(u, v, fraction)
            points.append(GpsPoint(x, y, next_sample))
            next_sample += sample_interval
        clock = edge_end
    points.append(GpsPoint(*network.position(path[-1]), clock))
    return Trajectory(points)


def bits(trajectory):
    return np.array([(p.x, p.y, p.t) for p in trajectory]).tobytes()


@pytest.fixture(scope="module")
def network():
    return RoadNetwork.random_geometric(
        40, 3.0, rng=np.random.default_rng(8), size=8.0)


def random_path(network, rng):
    nodes = network.nodes()
    while True:
        source, target = rng.choice(len(nodes), size=2, replace=False)
        path = network.shortest_path(nodes[source], nodes[target])
        if len(path) >= 2:
            return path


@settings(deadline=None, max_examples=150, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       start=st.sampled_from([0.0, 480.0, 0.1, 1e3 / 3, -7.25]),
       interval=st.one_of(st.floats(0.01, 5.0),
                          st.sampled_from([0.1, 0.25, 0.4, 1 / 3, 1.0])))
def test_equals_loop(network, seed, start, interval):
    rng = np.random.default_rng(seed)
    path = random_path(network, rng)
    times = rng.uniform(0.05, 3.0, len(path) - 1)
    if rng.uniform() < 0.5:  # dyadic times: exact boundary hits
        times = rng.choice([0.25, 0.5, 1.0, 1.5], len(path) - 1)
    expected = simulate_trip_loop(network, path, times, start_time=start,
                                  sample_interval=interval)
    actual = simulate_trip(network, path, times, start_time=start,
                           sample_interval=interval)
    assert bits(actual) == bits(expected)


def test_samples_on_edge_boundaries():
    # Coordinates where ``x1 + 1.0 * (x2 - x1) != x2``: a boundary
    # sample placed at the end of one edge instead of the start of the
    # next would be off by one bit.
    graph = nx.DiGraph()
    positions = {"a": (0.7, 0.7), "b": (2.9, 0.7), "c": (2.9, 2.9),
                 "d": (0.2, 2.9)}
    for node, pos in positions.items():
        graph.add_node(node, pos=pos)
    for u, v in [("a", "b"), ("b", "c"), ("c", "d")]:
        graph.add_edge(u, v, length=1.0)
    network = RoadNetwork(graph)
    path, times = ["a", "b", "c", "d"], [1.0, 0.5, 1.0]
    expected = simulate_trip_loop(network, path, times, start_time=2.0,
                                  sample_interval=0.5)
    actual = simulate_trip(network, path, times, start_time=2.0,
                           sample_interval=0.5)
    assert bits(actual) == bits(expected)
    # Each boundary sample sits exactly on the next edge's start node.
    at = {p.t: (p.x, p.y) for p in actual}
    assert at[3.0] == positions["b"] and at[3.5] == positions["c"]


@pytest.mark.parametrize("interval", [2.0, 5.0, 1e9])
def test_interval_longer_than_trip(interval):
    network = RoadNetwork.grid(3, 3)
    path = [(0, 0), (0, 1), (1, 1)]
    times = [0.75, 1.25]
    expected = simulate_trip_loop(network, path, times, start_time=30.0,
                                  sample_interval=interval)
    actual = simulate_trip(network, path, times, start_time=30.0,
                           sample_interval=interval)
    assert bits(actual) == bits(expected)
    assert len(actual) == 2 and actual[-1].t == 32.0


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_non_positive_time_error_is_unchanged(bad):
    network = RoadNetwork.grid(3, 3)
    path = [(0, 0), (0, 1), (0, 2)]
    for simulate in (simulate_trip, simulate_trip_loop):
        with pytest.raises(ValueError, match="edge times must be positive"):
            simulate(network, path, [1.0, bad])


@pytest.mark.parametrize("times, interval, message", [
    ([1.0, math.inf], 0.5, "edge times must be finite"),
    ([1.0, 1.0], 0.0, "sample_interval must be > 0"),
    ([1.0, 1.0], -0.5, "sample_interval must be > 0")])
def test_unbounded_inputs_raise(times, interval, message):
    # The loop never ends on these; the array version refuses them.
    network = RoadNetwork.grid(3, 3)
    with pytest.raises(ValueError, match=message):
        simulate_trip(network, [(0, 0), (0, 1), (0, 2)], times,
                      sample_interval=interval)
