"""Tests for repro.datatypes.roadnetwork."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork

from .oracles import k_shortest_reference


@pytest.fixture
def grid():
    return RoadNetwork.grid(4, 4)


class TestGenerators:
    def test_grid_counts(self, grid):
        assert grid.n_nodes == 16
        # 4x4 grid: 2 * (3*4 + 4*3) = 48 directed edges
        assert grid.n_edges == 48

    def test_grid_positions(self, grid):
        assert grid.position((0, 0)) == (0.0, 0.0)
        assert grid.position((2, 3)) == (3.0, 2.0)

    def test_grid_one_way(self):
        net = RoadNetwork.grid(3, 3, bidirectional=False)
        assert net.has_edge((0, 0), (0, 1))
        assert not net.has_edge((0, 1), (0, 0))

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            RoadNetwork.grid(1, 5)

    def test_random_geometric_strongly_connected(self):
        rng = np.random.default_rng(0)
        net = RoadNetwork.random_geometric(60, 2.5, rng=rng)
        assert net.n_nodes >= 2
        nodes = net.nodes()
        # every retained pair is mutually reachable
        path = net.shortest_path(nodes[0], nodes[-1])
        back = net.shortest_path(nodes[-1], nodes[0])
        assert path[0] == nodes[0] and back[-1] == nodes[0]

    def test_random_geometric_too_sparse(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RoadNetwork.random_geometric(20, 0.001, rng=rng)


class TestValidation:
    def test_rejects_missing_pos(self):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_node(0)
        with pytest.raises(ValueError):
            RoadNetwork(graph)

    def test_rejects_nonpositive_length(self):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_node(0, pos=(0, 0))
        graph.add_node(1, pos=(1, 0))
        graph.add_edge(0, 1, length=0.0)
        with pytest.raises(ValueError):
            RoadNetwork(graph)


class TestGeometry:
    def test_project_point_midpoint(self, grid):
        distance, fraction = grid.project_point((0.5, 0.3), (0, 0), (0, 1))
        assert distance == pytest.approx(0.3)
        assert fraction == pytest.approx(0.5)

    def test_project_point_clamps(self, grid):
        _, fraction = grid.project_point((-1.0, 0.0), (0, 0), (0, 1))
        assert fraction == 0.0

    def test_point_on_edge(self, grid):
        x, y = grid.point_on_edge((0, 0), (0, 1), 0.25)
        assert (x, y) == (0.25, 0.0)

    def test_candidate_edges_sorted(self, grid):
        candidates = grid.candidate_edges((0.5, 0.1), radius=0.6)
        assert candidates
        distances = [c[2] for c in candidates]
        assert distances == sorted(distances)
        u, v, _, _ = candidates[0]
        assert {u, v} == {(0, 0), (0, 1)}

    def test_nearest_node(self, grid):
        assert grid.nearest_node((2.9, 2.1)) == (2, 3)


class TestPaths:
    def test_shortest_path_manhattan(self, grid):
        path = grid.shortest_path((0, 0), (2, 2))
        assert grid.path_length(path) == pytest.approx(4.0)

    def test_k_shortest_paths_distinct(self, grid):
        paths = grid.k_shortest_paths((0, 0), (2, 2), 3)
        assert len(paths) == 3
        assert len({tuple(p) for p in paths}) == 3
        lengths = [grid.path_length(p) for p in paths]
        assert lengths == sorted(lengths)

    def test_k_invalid(self, grid):
        with pytest.raises(ValueError):
            grid.k_shortest_paths((0, 0), (1, 1), 0)

    def test_path_edges_validates(self, grid):
        with pytest.raises(ValueError):
            grid.path_edges([(0, 0), (2, 2)])

    def test_path_edges_short(self, grid):
        with pytest.raises(ValueError):
            grid.path_edges([(0, 0)])

    def test_route_distance_identity(self, grid):
        path = grid.shortest_path((0, 0), (3, 3))
        assert grid.route_distance(path, path) == 0.0

    def test_route_distance_disjoint(self, grid):
        path_a = [(0, 0), (0, 1), (0, 2)]
        path_b = [(3, 0), (3, 1), (3, 2)]
        assert grid.route_distance(path_a, path_b) == 1.0

    def test_dijkstra_all_matches_networkx(self, grid):
        distances = grid.dijkstra_all((0, 0))
        for node in grid.nodes():
            expected = grid.shortest_path_length((0, 0), node)
            assert distances[node] == pytest.approx(expected)

    def test_edge_attributes_roundtrip(self, grid):
        grid.set_edge_attribute((0, 0), (0, 1), "speed", 13.0)
        assert grid.edge_attribute((0, 0), (0, 1), "speed") == 13.0
        assert grid.edge_attribute((0, 0), (0, 1), "missing", 7) == 7

    def test_edge_attribute_missing_edge(self, grid):
        with pytest.raises(KeyError):
            grid.set_edge_attribute((0, 0), (3, 3), "x", 1)


def same_outcome(network, source, target, k, weight="length"):
    """Assert ``k_shortest_paths`` returns networkx's paths, in
    networkx's order, or raises the same error type and message."""
    def outcome(search):
        try:
            return "ok", search(network, source, target, k, weight)
        except (KeyError, ValueError) as error:
            return type(error), str(error)

    assert outcome(RoadNetwork.k_shortest_paths) == \
        outcome(k_shortest_reference)


def pick(data, nodes):
    return nodes[data.draw(st.integers(0, len(nodes) - 1))]


class TestKShortestDifferential:
    """``k_shortest_paths`` against networkx's Yen as a test oracle."""

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(rows=st.integers(2, 6), cols=st.integers(2, 6),
           bidirectional=st.booleans(),
           spacing=st.sampled_from([1.0, 1, 0.5]),
           k=st.integers(1, 12), data=st.data())
    def test_equal_weight_grids(self, rows, cols, bidirectional, spacing,
                                k, data):
        # Every route of a grid ties with others of its length.  One-way
        # grids leave many pairs unreachable.
        network = RoadNetwork.grid(rows, cols, spacing,
                                   bidirectional=bidirectional)
        nodes = network.nodes()
        same_outcome(network, pick(data, nodes), pick(data, nodes), k)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(4, 40),
           radius=st.floats(1.8, 4.0), k=st.integers(1, 10),
           data=st.data())
    def test_random_geometric(self, seed, n_nodes, radius, k, data):
        try:
            network = RoadNetwork.random_geometric(n_nodes, radius,
                                                   rng=seed)
        except ValueError:  # too sparse to keep two nodes
            return
        nodes = network.nodes()
        same_outcome(network, pick(data, nodes), pick(data, nodes), k)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), ties=st.booleans(),
           k=st.integers(1, 10), data=st.data())
    def test_reweighted_mean_time(self, seed, ties, k, data):
        network = RoadNetwork.grid(5, 5)
        rng = np.random.default_rng(seed)
        nodes = network.nodes()
        source, target = pick(data, nodes), pick(data, nodes)
        # Weigh twice: the second pass must replace the first's slot.
        for _ in range(2):
            same_outcome(network, source, target, k, "mean_time")
            for u, v in network.edges():
                value = (float(rng.integers(1, 4)) if ties
                         else float(rng.uniform(0.5, 3.0)))
                network.set_edge_attribute(u, v, "mean_time", value)
            same_outcome(network, source, target, k, "mean_time")

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 10),
           data=st.data())
    def test_weight_missing_or_none_on_some_edges(self, seed, k, data):
        # networkx weighs an edge without the attribute 1 and skips
        # one whose value is None.
        network = RoadNetwork.grid(4, 5)
        rng = np.random.default_rng(seed)
        for u, v in network.edges():
            kind = rng.integers(4)
            if kind == 1:
                network.set_edge_attribute(u, v, "toll", None)
            elif kind >= 2:
                network.set_edge_attribute(u, v, "toll",
                                           float(rng.integers(0, 3)))
        nodes = network.nodes()
        same_outcome(network, pick(data, nodes), pick(data, nodes), k,
                     "toll")

    @pytest.mark.parametrize("k", [4, 5, 50])
    def test_k_above_the_path_count(self, k):
        # A 2x3 two-way grid has four simple (0,0)->(1,2) paths.
        network = RoadNetwork.grid(2, 3)
        paths = network.k_shortest_paths((0, 0), (1, 2), k)
        assert len(paths) == 4
        same_outcome(network, (0, 0), (1, 2), k)

    def test_source_is_target(self):
        network = RoadNetwork.grid(3, 3)
        assert network.k_shortest_paths((1, 1), (1, 1), 4) == [[(1, 1)]]
        same_outcome(network, (1, 1), (1, 1), 4)

    def test_unreachable_raises_value_error(self):
        graph = nx.DiGraph()
        for node, pos in ((0, (0.0, 0.0)), (1, (1.0, 0.0)),
                          (2, (5.0, 5.0))):
            graph.add_node(node, pos=pos)
        graph.add_edge(0, 1, length=1.0)
        network = RoadNetwork(graph)
        with pytest.raises(ValueError, match="No path between 0 and 2"):
            network.k_shortest_paths(0, 2, 3)
        same_outcome(network, 0, 2, 3)
        same_outcome(network, 1, 0, 3)

    @pytest.mark.parametrize("source, target", [
        ((9, 9), (0, 0)), ((0, 0), (9, 9)), ((9, 9), (8, 8))])
    def test_unknown_nodes_raise_key_error(self, source, target):
        network = RoadNetwork.grid(3, 3)
        with pytest.raises(KeyError):
            network.k_shortest_paths(source, target, 2)
        same_outcome(network, source, target, 2)

    def test_grid_corner_ties_in_networkx_order(self):
        # 252 equal-length (0,0)->(5,5) routes on the 6x6 grid.
        network = RoadNetwork.grid(6, 6)
        paths = network.k_shortest_paths((0, 0), (5, 5), 300)
        assert len({tuple(path) for path in paths}) == len(paths)
        assert sum(network.path_length(path) == 10.0
                   for path in paths) == 252
        same_outcome(network, (0, 0), (5, 5), 300)


class TestConsistency:
    def test_edge_lengths_match_positions(self, grid):
        for u, v in grid.edges():
            (x1, y1), (x2, y2) = grid.edge_endpoints(u, v)
            assert grid.edge_length(u, v) == pytest.approx(
                math.hypot(x2 - x1, y2 - y1)
            )
