"""The reach-keyed candidate table and the edit-keyed network snapshots.

``_GeometryIndex.candidate_table`` serves every candidate search from
one dense row per grid cell: the edges bucketed within
``ceil(radius / cell)`` cells.  These tests pin it against the
brute-force oracle ``candidate_edges_scan`` on generated
inputs, degenerate ones included:

* radii below one cell, at the cell size and beyond the map's span;
* points on nodes, on cell borders, at the grid's edge and far off it;
* networks without edges, with one edge, and with nodes sharing a
  position;

and check that racing threads build each table exactly once, that
``set_edge_attribute`` invalidates exactly the snapshots that read the
attribute it sets, that ``match`` reports a dead end at the same point
index as the ``match_reference`` oracle, and that ``matched_path``
stitches like the loop that searched a connector for every edge
change.
"""

import math
import sys
import threading

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork, Trajectory
from repro.datatypes.roadnetwork import _GeometryIndex
from repro.governance.fusion import HmmMapMatcher

from .oracles import candidate_edges_scan, match_reference
from .test_trace_matching import (
    as_trajectory,
    coincident_network,
    disconnected_network,
    outcome,
    trace_points,
    walk_points,
)

#: Float tolerance between the numpy projection and the scan's
#: pure-Python one (``np.hypot`` and ``math.hypot`` may differ in the
#: last bit); coordinates here are at most ~1e3 in magnitude.
TOLERANCE = 1e-9

KINDS = ["grid", "geometric", "coincident", "edgeless", "single_edge",
         "one_spot"]


def network_from(positions, edges):
    graph = nx.DiGraph()
    for node, pos in positions.items():
        graph.add_node(node, pos=pos)
    for u, v in edges:
        graph.add_edge(u, v, length=1.0)
    return RoadNetwork(graph)


def build(kind, rng):
    if kind == "grid":
        return RoadNetwork.grid(int(rng.integers(2, 7)),
                                int(rng.integers(2, 7)),
                                spacing=float(rng.choice([0.5, 1.0, 1.3])))
    if kind == "geometric":
        return RoadNetwork.random_geometric(
            int(rng.integers(15, 60)), float(rng.uniform(2.0, 3.5)),
            rng=rng, size=6.0)
    if kind == "coincident":
        return coincident_network()
    if kind == "edgeless":
        return network_from({i: tuple(rng.uniform(0, 3, 2))
                             for i in range(int(rng.integers(1, 4)))}, [])
    if kind == "single_edge":
        return network_from({"a": tuple(rng.uniform(0, 3, 2)),
                             "b": tuple(rng.uniform(0, 3, 2))},
                            [("a", "b")])
    # Every node at one position: a zero-span grid of one cell.
    return network_from({i: (1.0, 2.0) for i in range(3)},
                        [(0, 1), (1, 2), (2, 0), (1, 0)])


def query_points(network, rng, n):
    if network.n_edges:
        return trace_points(network, rng, n)
    center = network._geometry().node_xy.mean(axis=0)
    return [tuple(center + rng.normal(0.0, 2.0, 2)) for _ in range(n)]


def query_radii(geometry, rng):
    """Below one cell, the cell itself, a few cells, past the span."""
    span = geometry.cell * max(geometry.nx_cells, geometry.ny_cells)
    return [0.0, geometry.cell * float(rng.uniform(0.01, 0.99)),
            geometry.cell, geometry.cell * float(rng.uniform(1.0, 4.0)),
            span * float(rng.uniform(1.0, 3.0)), span * 1e3, math.inf]


def assert_matches_scan(network, point, radius, fast):
    """``fast`` is the scan's answer: the same edges (up to edges at
    the radius, within float tolerance), the same distances and
    fractions within tolerance, sorted by distance, ties by edge
    index."""
    slow = {(u, v): (d, f) for u, v, d, f in
            candidate_edges_scan(network, point, radius)}
    found = {(u, v): (d, f) for u, v, d, f in fast}
    for edge in set(found) ^ set(slow):
        distance = found.get(edge, slow.get(edge))[0]
        assert math.isclose(distance, radius, abs_tol=TOLERANCE)
    for edge in set(found) & set(slow):
        for a, b in zip(found[edge], slow[edge]):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=TOLERANCE)
    order = {edge: i for i, edge in enumerate(network.edges())}
    keys = [(d, order[(u, v)]) for u, v, d, _ in fast]
    assert keys == sorted(keys)


class TestTableAgainstScan:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
    def test_candidate_edges_equal_scan(self, seed, kind):
        rng = np.random.default_rng(seed)
        network = build(kind, rng)
        geometry = network._geometry()
        points = query_points(network, rng, 12)
        for radius in query_radii(geometry, rng):
            for point in points:
                assert_matches_scan(network, point, radius,
                                    network.candidate_edges(point, radius))

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
           limit=st.integers(1, 12))
    def test_trace_rows_equal_candidate_edges(self, seed, kind, limit):
        rng = np.random.default_rng(seed)
        network = build(kind, rng)
        geometry = network._geometry()
        points = query_points(network, rng, 20)
        for radius in query_radii(geometry, rng):
            edges, distances, fractions, counts = \
                geometry.trace_candidates(points, radius, limit)
            assert edges.shape == (len(points), max(counts, default=0))
            for t, point in enumerate(points):
                row = [(*geometry.edge_list[e], float(d), float(f))
                       for e, d, f in zip(edges[t, :counts[t]],
                                          distances[t, :counts[t]],
                                          fractions[t, :counts[t]])]
                expected = network.candidate_edges(point, radius)[:limit]
                assert repr(row) == repr(expected)

    def test_rows_are_ascending_deduplicated_and_padded(self):
        network = RoadNetwork.random_geometric(
            80, 2.0, rng=np.random.default_rng(4), size=8.0)
        geometry = network._geometry()
        for radius in (0.1, 1.0, 3.0, 100.0):
            table = geometry.candidate_table(radius)
            assert table.dtype == np.int32
            assert table.shape[:2] == (geometry.nx_cells,
                                       geometry.ny_cells)
            for row in table.reshape(-1, table.shape[2]):
                real = row[row >= 0]
                assert (row[len(real):] == -1).all()
                assert (np.diff(real) > 0).all()

    def test_radii_of_one_reach_share_a_table(self):
        network = RoadNetwork.grid(24, 24)
        geometry = network._geometry()
        cell = geometry.cell
        tables = {id(geometry.candidate_table(r))
                  for r in np.linspace(0.3, 1.2, 120)}
        reaches = {math.ceil(r / cell) for r in np.linspace(0.3, 1.2, 120)}
        assert len(tables) == len(reaches) <= 4
        # Past the span, every radius reads the whole-grid table.
        assert geometry.candidate_table(1e6) is \
            geometry.candidate_table(math.inf)


class TestTableBuildRace:
    def test_racing_first_matches_build_each_table_once(self, monkeypatch):
        builds = []
        build_table = _GeometryIndex._build_candidate_table

        def counting_build(self, reach):
            builds.append(reach)
            threading.Event().wait(0.005)  # widen the race window
            return build_table(self, reach)

        monkeypatch.setattr(_GeometryIndex, "_build_candidate_table",
                            counting_build)
        network = RoadNetwork.grid(6, 6)
        trajectory = as_trajectory(
            [network.point_on_edge((2, c), (2, c + 1), 0.4)
             for c in range(5)])
        matchers = [HmmMapMatcher(network, sigma=0.1, beta=0.5,
                                  candidate_radius=radius)
                    for radius in (0.3, 0.3, 1.2, 1.2)]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        interval = sys.getswitchinterval()

        def work(index):
            barrier.wait()
            matcher = matchers[index % len(matchers)]
            results[index] = (matcher.candidate_radius,
                              repr(matcher.match(trajectory)))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        cell = network._geometry().cell
        assert sorted(builds) == sorted(
            {math.ceil(0.3 / cell), math.ceil(1.2 / cell)})
        for radius in (0.3, 1.2):
            assert len({r for c, r in results if c == radius}) == 1


class TestEditKeyedSnapshots:
    def test_reweighted_dijkstra_sees_the_new_weights(self):
        network = RoadNetwork.grid(3, 3)
        for u, v in network.edges():
            network.set_edge_attribute(u, v, "w", 1.0)
        index_of, _ = network.node_index()
        assert network.dijkstra_array((0, 0), weight="w")[
            index_of[(2, 2)]] == 4.0
        assert network.dijkstra_all((0, 0), weight="w")[(2, 2)] == 4.0
        for u, v in network.edges():
            network.set_edge_attribute(u, v, "w", 5.0)
        assert network.dijkstra_array((0, 0), weight="w")[
            index_of[(2, 2)]] == 20.0
        assert network.dijkstra_all((0, 0), weight="w")[(2, 2)] == 20.0
        assert network.shortest_path_length((0, 0), (2, 2),
                                            weight="w") == 20.0

    def test_other_attributes_rebuild_nothing_length_keyed(self):
        network = RoadNetwork.grid(4, 4)
        geometry = network._geometry()
        network.dijkstra_array((0, 0))
        slot = ("costs", "length")
        costs = network._snapshot[slot][1]
        table = geometry.candidate_table(0.5)
        for u, v in network.edges():
            network.set_edge_attribute(u, v, "time", 2.0)
            network.set_edge_attribute(u, v, "energy", 3.0)
        network.dijkstra_array((0, 0))
        assert network._geometry() is geometry
        assert network._snapshot[slot][1] is costs
        assert geometry.candidate_table(0.5) is table
        network.set_edge_attribute((0, 0), (0, 1), "length", 2.5)
        network.dijkstra_array((0, 0))
        assert network._geometry() is not geometry
        assert network._geometry().edge_length.max() == 2.5
        assert network._snapshot[slot][1] is not costs

    def test_matcher_after_a_length_edit_equals_a_fresh_one(self):
        rng = np.random.default_rng(21)
        network = RoadNetwork.grid(5, 5)
        trajectories = [as_trajectory(walk_points(network, rng, 10))
                        for _ in range(12)]
        used = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        before = [outcome(used.match, t) for t in trajectories]
        for u, v in network.edges():
            network.set_edge_attribute(
                u, v, "length", float(rng.uniform(0.5, 4.0)))
        rebuilt = RoadNetwork(network.graph.copy())
        after = [outcome(used.match, t) for t in trajectories]
        fresh = HmmMapMatcher(rebuilt, sigma=0.1, beta=0.5)
        assert after == [outcome(fresh.match, t) for t in trajectories]
        assert after == [outcome(match_reference, used, t)
                         for t in trajectories]
        assert after != before  # the edit changed some match


class TestDeadEndIndex:
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), hops=st.integers(1, 3))
    def test_first_dead_point_equals_reference(self, seed, hops):
        rng = np.random.default_rng(seed)
        network = disconnected_network(int(rng.integers(2, 4)),
                                       int(rng.integers(2, 4)))
        west = [n for n in network.nodes() if n[0] == "w"]
        east = [n for n in network.nodes() if n[0] == "e"]
        points = walk_points(network, rng, int(rng.integers(2, 10)))
        # Jump between the two halves ``hops`` times, anywhere.
        for _ in range(hops):
            side = west if rng.uniform() < 0.5 else east
            at = int(rng.integers(0, len(points) + 1))
            node = side[rng.integers(len(side))]
            points.insert(at, network.position(node))
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5,
                                beta_cutoff=None)
        trajectory = as_trajectory(points)
        assert outcome(matcher.match, trajectory) == \
            outcome(match_reference, matcher, trajectory)

    def test_dead_end_after_the_first_step(self):
        network = disconnected_network(2, 2)
        points = [network.position(("w", 0, 0)),
                  network.position(("w", 0, 1)),
                  network.position(("e", 0, 0)),
                  network.position(("e", 1, 0))]
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        with pytest.raises(ValueError, match="through point 2;"):
            matcher.match(Trajectory([(x, y, float(t))
                                      for t, (x, y) in enumerate(points)]))


def matched_path_reference(matcher, trajectory):
    """Stitching with a shortest-path search at every edge change."""
    candidates = matcher.match(trajectory)
    path = []

    def extend(nodes):
        for node in nodes:
            if not path or path[-1] != node:
                path.append(node)

    previous_edge = None
    for u, v, _, fraction in candidates:
        if (u, v) == previous_edge:
            continue
        if previous_edge is None:
            extend([v] if fraction >= 0.99 else [u, v])
        else:
            extend(matcher.network.shortest_path(previous_edge[1], u))
            extend([v])
        previous_edge = (u, v)
    changed = True
    while changed and len(path) >= 3:
        changed = False
        for index in range(len(path) - 2):
            if path[index] == path[index + 2]:
                del path[index + 1:index + 3]
                changed = True
                break
    if len(path) < 2:
        u, v, _, _ = candidates[0]
        path = [u, v]
    return path


class TestMatchedPath:
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["grid", "geometric"]),
           stride=st.integers(1, 3))
    def test_equals_search_at_every_edge_change(self, seed, kind, stride):
        rng = np.random.default_rng(seed)
        network = build(kind, rng)
        # One noisy fix every ``stride`` edges of a random drive, so
        # consecutive matched edges often do not meet at a node.
        node = network.nodes()[rng.integers(network.n_nodes)]
        points = []
        for step in range(12 * stride):
            following = network.successors(node)
            following = following[rng.integers(len(following))]
            if step % stride == 0:
                x, y = network.point_on_edge(node, following, 0.5)
                points.append((x + rng.normal(0.0, 0.03),
                               y + rng.normal(0.0, 0.03)))
            node = following
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        trajectory = as_trajectory(points)
        assert outcome(matcher.matched_path, trajectory) == \
            outcome(matched_path_reference, matcher, trajectory)

    def test_gap_between_matched_edges_is_searched(self):
        network = RoadNetwork.grid(3, 4)
        # Fixes on edges (0,0)->(0,1) and (0,2)->(0,3): one edge between.
        trajectory = as_trajectory([(0.5, 0.02), (2.5, 0.02)])
        matcher = HmmMapMatcher(network, sigma=0.1, beta=0.5)
        assert matcher.matched_path(trajectory) == \
            [(0, 0), (0, 1), (0, 2), (0, 3)]
