"""Differential tests for whole-trace map matching.

``HmmMapMatcher.match`` gathers every point's candidates in one
trace-level search (``_GeometryIndex.trace_candidates``) and scores
padded ``(T, K)`` layers; it must agree exactly with the per-point
oracles:

* each row of the trace-level search equals
  ``RoadNetwork.candidate_edges(point, radius)[:limit]``, float bits and
  tie order included;
* ``match`` equals the pure-Python oracle ``match_reference`` (which
  builds its layers from per-point ``candidate_edges``), or both raise
  the same ``ValueError``;
* a one-row distance cache returns the same matches as the default.

Inputs are generated from seeds: grids (two-way and one-way),
random-geometric networks, a hand-built network with two coincident
nodes (a zero-length segment) and a disconnected one; points sit on
nodes (ties between edges), on edges, on grid-cell borders, anywhere
near the map and far off it.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DecisionServer, RoadNetwork, Trajectory
from repro.datatypes.roadnetwork import _GeometryIndex
from repro.governance.fusion import HmmMapMatcher
from repro.serve import MatchQuery

from .oracles import match_reference, nearest_node_scan

NETWORK_KINDS = ["grid", "one_way", "geometric", "coincident",
                 "disconnected"]


def coincident_network():
    """Two nodes at one position, joined by a zero-length segment."""
    graph = nx.DiGraph()
    positions = {"a": (0.0, 0.0), "b": (1.0, 0.0), "b2": (1.0, 0.0),
                 "c": (2.0, 0.0), "d": (1.0, 1.0), "e": (2.0, 1.0)}
    for node, pos in positions.items():
        graph.add_node(node, pos=pos)
    for u, v in [("a", "b"), ("b", "b2"), ("b2", "c"), ("b", "d"),
                 ("d", "e"), ("e", "c"), ("b2", "d")]:
        (x1, y1), (x2, y2) = positions[u], positions[v]
        length = max(math.hypot(x2 - x1, y2 - y1), 0.05)
        graph.add_edge(u, v, length=length)
        graph.add_edge(v, u, length=length)
    return RoadNetwork(graph)


def disconnected_network(rows, cols):
    """Two grids side by side with no road between them."""
    graph = nx.DiGraph()
    for side, offset in (("w", 0.0), ("e", cols + 1.5)):
        part = RoadNetwork.grid(rows, cols).graph
        for node, data in part.nodes(data=True):
            x, y = data["pos"]
            graph.add_node((side, *node), pos=(x + offset, y))
        for u, v, data in part.edges(data=True):
            graph.add_edge((side, *u), (side, *v), length=data["length"])
    return RoadNetwork(graph)


def build_network(kind, rng):
    if kind == "grid":
        return RoadNetwork.grid(int(rng.integers(2, 7)),
                                int(rng.integers(2, 7)),
                                spacing=float(rng.choice([0.5, 1.0, 1.3])))
    if kind == "one_way":
        return RoadNetwork.grid(int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)),
                                bidirectional=False)
    if kind == "geometric":
        return RoadNetwork.random_geometric(
            int(rng.integers(15, 60)), float(rng.uniform(2.0, 3.5)),
            rng=rng, size=6.0)
    if kind == "coincident":
        return coincident_network()
    return disconnected_network(int(rng.integers(2, 4)),
                                int(rng.integers(2, 4)))


def trace_points(network, rng, n, *, off_map=0.15):
    """``n`` points mixing nodes, edges, cell borders, near and far."""
    geometry = network._geometry()
    lo = geometry.node_xy.min(axis=0)
    hi = geometry.node_xy.max(axis=0)
    span = float(max(hi - lo)) + 1.0
    nodes = network.nodes()
    edges = network.edges()
    weights = np.array([0.25, 0.25, 0.2, 0.3 - off_map, off_map])
    points = []
    for kind in rng.choice(5, size=n, p=weights / weights.sum()):
        if kind == 0:  # exactly on a node: ties between its edges
            point = network.position(nodes[rng.integers(len(nodes))])
        elif kind == 1:  # on an edge, possibly at an end
            u, v = edges[rng.integers(len(edges))]
            fraction = float(rng.choice([0.0, 0.5, 1.0, rng.uniform()]))
            point = network.point_on_edge(u, v, fraction)
        elif kind == 2:  # on a grid-cell border
            cells = rng.integers(0, (geometry.nx_cells + 1,
                                     geometry.ny_cells + 1))
            point = geometry.origin + cells * geometry.cell
            axis = int(rng.integers(3))
            if axis < 2:
                point[axis] = rng.uniform(lo[axis] - 1.0, hi[axis] + 1.0)
        elif kind == 3:  # anywhere near the map
            point = rng.uniform(lo - 1.0, hi + 1.0)
        else:  # far off the map, on any side
            angle = rng.uniform(0.0, 2.0 * math.pi)
            scale = span * float(rng.choice([2.0, 10.0, 1e6]))
            point = (lo + hi) / 2 + scale * np.array(
                [math.cos(angle), math.sin(angle)])
        points.append((float(point[0]), float(point[1])))
    return points


def walk_points(network, rng, n):
    """A noisy drive along successive edges, with stops (repeated
    fixes), topped up with ``trace_points`` at a dead end; about a fifth
    of the points are swapped for ``trace_points``' nodes, borders and
    far-off points."""
    node = network.nodes()[rng.integers(network.n_nodes)]
    points = []
    while len(points) < n:
        successors = network.successors(node)
        if not successors:
            break
        following = successors[rng.integers(len(successors))]
        for fraction in np.sort(rng.uniform(size=rng.integers(1, 4))):
            x, y = network.point_on_edge(node, following, float(fraction))
            points.append((x + rng.normal(0.0, 0.05),
                           y + rng.normal(0.0, 0.05)))
            if rng.uniform() < 0.2:  # a stop: the same fix twice
                points.append(points[-1])
        node = following
    points = (points + trace_points(network, rng, n))[:n]
    special = trace_points(network, rng, len(points), off_map=0.1)
    swap = rng.uniform(size=len(points)) < 0.2
    return [b if s else a for a, b, s in zip(points, special, swap)]


def as_trajectory(points):
    return Trajectory([(x, y, float(t)) for t, (x, y) in enumerate(points)])


def outcome(function, *args):
    """``("ok", repr(result))`` or ``("error", message)`` of a call."""
    try:
        return "ok", repr(function(*args))
    except ValueError as error:
        return "error", str(error)


class TestTraceCandidates:
    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(NETWORK_KINDS),
           radius=st.one_of(st.floats(0.05, 2.5),
                            st.sampled_from([0.5, 1.0, 1.3])),
           limit=st.integers(1, 12))
    def test_rows_equal_candidate_edges(self, seed, kind, radius, limit):
        rng = np.random.default_rng(seed)
        network = build_network(kind, rng)
        points = trace_points(network, rng, 25)
        geometry = network._geometry()
        edges, distances, fractions, counts = \
            geometry.trace_candidates(points, radius, limit)
        assert edges.shape == distances.shape == fractions.shape
        assert edges.shape == (len(points), max(counts, default=0))
        for t, point in enumerate(points):
            row = [
                (*geometry.edge_list[e], float(d), float(f))
                for e, d, f in zip(edges[t, :counts[t]],
                                   distances[t, :counts[t]],
                                   fractions[t, :counts[t]])
            ]
            expected = network.candidate_edges(point, radius)[:limit]
            # repr pins the float bits, signed zeros included.
            assert repr(row) == repr(expected)

    @pytest.mark.parametrize("slots", [1, 7, 64])
    def test_chunked_gather_matches_one_chunk(self, monkeypatch, slots):
        rng = np.random.default_rng(slots)
        network = RoadNetwork.random_geometric(40, 2.5, rng=rng, size=6.0)
        points = trace_points(network, rng, 30)
        whole = network._geometry().trace_candidates(points, 1.2, 6)
        monkeypatch.setattr(_GeometryIndex, "_GATHER_SLOTS", slots)
        chunked = network._geometry().trace_candidates(points, 1.2, 6)
        for a, b in zip(whole, chunked):
            assert a.shape == b.shape
            assert repr(a.tolist()) == repr(b.tolist())

    def test_network_without_edges(self):
        graph = nx.DiGraph()
        graph.add_node("only", pos=(0.0, 0.0))
        network = RoadNetwork(graph)
        edges, _, _, counts = network._geometry().trace_candidates(
            [(0.0, 0.0), (1.0, 1.0)], 1.0, 4)
        assert edges.shape == (2, 0) and counts.tolist() == [0, 0]


class TestMatchDifferential:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(NETWORK_KINDS),
           sigma=st.floats(0.05, 0.4),
           max_candidates=st.integers(1, 10),
           beta_cutoff=st.sampled_from([None, 1e6]))
    def test_match_equals_reference(self, seed, kind, sigma,
                                    max_candidates, beta_cutoff):
        # The oracle's Dijkstra searches are unbounded, so the matcher
        # runs unbounded too, or bounded past the network's diameter.
        rng = np.random.default_rng(seed)
        network = build_network(kind, rng)
        trajectory = as_trajectory(
            walk_points(network, rng, int(rng.integers(2, 12))))
        matcher = HmmMapMatcher(network, sigma=sigma, beta=0.5,
                                max_candidates=max_candidates,
                                beta_cutoff=beta_cutoff)
        assert outcome(matcher.match, trajectory) == \
            outcome(match_reference, matcher, trajectory)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(NETWORK_KINDS),
           sigma=st.floats(0.05, 0.4))
    def test_one_row_cache_equals_default(self, seed, kind, sigma):
        rng = np.random.default_rng(seed)
        network = build_network(kind, rng)
        trajectories = [
            as_trajectory(walk_points(network, rng,
                                      int(rng.integers(2, 10))))
            for _ in range(3)
        ]
        default = HmmMapMatcher(network, sigma=sigma, beta=0.5)
        tiny = HmmMapMatcher(network, sigma=sigma, beta=0.5,
                             distance_cache_size=1)
        for trajectory in trajectories:
            assert outcome(tiny.match, trajectory) == \
                outcome(default.match, trajectory)

    def test_disconnected_trace_raises_like_reference(self):
        network = disconnected_network(3, 3)
        west = network.position(("w", 1, 1))
        east = network.position(("e", 1, 1))
        trajectory = as_trajectory([west, east])
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5,
                                beta_cutoff=None)
        expected = outcome(match_reference, matcher, trajectory)
        assert expected[0] == "error"
        assert "no connected matching through point 1" in expected[1]
        assert outcome(matcher.match, trajectory) == expected

    def test_padded_slots_never_match(self):
        # One-way grid: B's only candidate cannot be reached from A's,
        # while a padded slot of B's row (an edge beyond the radius,
        # there because C on a node has four candidates) can be.
        network = RoadNetwork.grid(3, 3, bidirectional=False)
        trajectory = as_trajectory([(0.5, 0.0), (0.5, 1.0), (1.0, 1.0)])
        matcher = HmmMapMatcher(network, sigma=0.02, beta=0.5)
        _, _, _, counts = network._geometry().trace_candidates(
            [(p.x, p.y) for p in trajectory], matcher.candidate_radius,
            matcher.max_candidates)
        assert counts.tolist() == [1, 1, 4]
        with pytest.raises(ValueError, match="through point 1"):
            matcher.match(trajectory)

    def test_one_lookup_per_distinct_exit_and_radius(self):
        rng = np.random.default_rng(9)
        network = RoadNetwork.grid(6, 6)
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5,
                                max_candidates=5)
        matched = padded = 0
        for _ in range(5):
            points = walk_points(network, rng, 12)
            try:
                matcher.match(as_trajectory(points))
            except ValueError:
                continue
            matched += 1
            _, _, _, counts = network._geometry().trace_candidates(
                points, matcher.candidate_radius, 5)
            padded += counts.min() < counts.max()
            expected = {
                (v, matcher._cutoff_for(math.hypot(x1 - x0, y1 - y0)))
                for (x0, y0), (x1, y1) in zip(points, points[1:])
                for _, v, _, _ in network.candidate_edges(
                    (x0, y0), matcher.candidate_radius)[:5]
            }
            before = matcher.cache_info()
            matcher.match(as_trajectory(points))
            after = matcher.cache_info()
            assert after["hits"] + after["misses"] \
                - before["hits"] - before["misses"] == len(expected)
        assert matched and padded

    def test_lookups_per_trace_independent_of_cache_state(self):
        rng = np.random.default_rng(5)
        network = RoadNetwork.grid(6, 6)
        points = [network.point_on_edge((2, c), (2, c + 1), 0.3)
                  for c in range(5)]
        trajectory = as_trajectory(
            [(x, y + rng.normal(0, 0.05)) for x, y in points])
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        counts = []
        for _ in range(3):
            before = matcher.cache_info()
            matcher.match(trajectory)
            after = matcher.cache_info()
            counts.append(after["hits"] + after["misses"]
                          - before["hits"] - before["misses"])
        assert counts[0] == counts[1] == counts[2] > 0
        assert matcher.cache_info()["misses"] == counts[0]


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.inf),
                                     (-math.inf, -math.inf)])
    def test_match_names_the_point(self, bad):
        network = RoadNetwork.grid(4, 4)
        trajectory = as_trajectory([(0.1, 0.0), (1.0, 0.1), bad,
                                    (2.0, 0.0)])
        matcher = HmmMapMatcher(network, sigma=0.1)
        with pytest.raises(ValueError, match="point 2 is not finite"):
            matcher.match(trajectory)
        with pytest.raises(ValueError, match="point 2 is not finite"):
            match_reference(matcher, trajectory)

    def test_served_match_query_is_an_error(self):
        network = RoadNetwork.grid(4, 4)
        trajectory = as_trajectory([(0.1, 0.0), (math.nan, 0.0)])
        with DecisionServer(
                matcher=HmmMapMatcher(network, sigma=0.1)) as server:
            result = server.submit(MatchQuery(trajectory)).result()
        assert result.outcome == "error"
        assert isinstance(result.error, ValueError)
        assert "point 1 is not finite" in str(result.error)

    @pytest.mark.parametrize("far", [(1e12, 1.0), (-1e300, 0.0),
                                     (2.0, 1e200)])
    def test_finite_far_point_keeps_off_map_error(self, far):
        network = RoadNetwork.grid(4, 4)
        trajectory = as_trajectory([(0.1, 0.0), far, (2.0, 0.0)])
        matcher = HmmMapMatcher(network, sigma=0.1)
        message = (r"no candidate edge within 0\.5 of point 1; "
                   "the trajectory is off the map")
        with pytest.raises(ValueError, match=message):
            matcher.match(trajectory)
        with pytest.raises(ValueError, match=message):
            match_reference(matcher, trajectory)


class TestNearestNodeOffMap:
    """The ring search stays bounded by the grid, however far the query."""

    @pytest.mark.parametrize("make", [
        lambda: RoadNetwork.grid(4, 4),
        lambda: RoadNetwork.grid(3, 7, spacing=0.5),
        lambda: RoadNetwork.random_geometric(
            40, 2.5, rng=np.random.default_rng(3), size=6.0),
        coincident_network,
        lambda: disconnected_network(2, 3),
    ])
    def test_far_points_on_every_side_match_scan(self, make):
        network = make()
        xy = network._geometry().node_xy
        center = (xy.min(axis=0) + xy.max(axis=0)) / 2
        for scale in (3.0, 1e3, 1e12, 1e300):
            for angle in np.linspace(0.0, 2.0 * math.pi, 16,
                                     endpoint=False):
                point = (float(center[0] + scale * math.cos(angle)),
                         float(center[1] + scale * math.sin(angle)))
                assert network.nearest_node(point) == \
                    nearest_node_scan(network, point)
        for point in [(1e12, 1.0), (-1e12, 1.0), (1.0, 1e12),
                      (1.0, -1e12)]:
            assert network.nearest_node(point) == \
                nearest_node_scan(network, point)

    @pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.inf),
                                     (-math.inf, math.nan)])
    def test_non_finite_point_raises(self, bad):
        network = RoadNetwork.grid(4, 4)
        with pytest.raises(ValueError, match="finite"):
            network.nearest_node(bad)
        with pytest.raises(ValueError, match="finite"):
            network.candidate_edges(bad, 1.0)
