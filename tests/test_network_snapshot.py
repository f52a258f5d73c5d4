"""The network's one snapshot and its one Dijkstra against networkx.

``dijkstra_array`` is the settled list of the same unidirectional
search that serves ``shortest_path`` (a port of networkx's
``_dijkstra_multisource``, run without a target over the per-edge cost
list) and ``dijkstra_all`` is the finite part of its row, so both must
equal networkx's ``single_source_dijkstra_path_length`` bit for bit,
with and without a cutoff, on generated graphs: grids, one-way grids,
random geometric graphs, disconnected pairs of grids, a single edge
and nodes sharing a position -- also after ``set_edge_attribute``
re-weights ``"length"`` or another attribute.  A NaN cutoff raises.
The snapshot's node order is the one order every array query uses.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork

from .test_trace_matching import coincident_network, disconnected_network

KINDS = ["grid", "one_way", "geometric", "disconnected", "single_edge",
         "coincident"]


def build(kind, rng):
    if kind in ("grid", "one_way"):
        return RoadNetwork.grid(int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)),
                                bidirectional=kind == "grid")
    if kind == "geometric":
        return RoadNetwork.random_geometric(
            int(rng.integers(10, 40)), float(rng.uniform(2.0, 3.5)),
            rng=rng, size=6.0)
    if kind == "disconnected":
        return disconnected_network(int(rng.integers(2, 4)),
                                    int(rng.integers(2, 4)))
    if kind == "single_edge":
        graph = nx.DiGraph()
        graph.add_node("a", pos=(0.0, 0.0))
        graph.add_node("b", pos=tuple(rng.uniform(0, 3, 2)))
        graph.add_edge("a", "b", length=float(rng.uniform(0.1, 3.0)))
        return RoadNetwork(graph)
    return coincident_network()


def reweight(network, rng, attribute):
    """Set ``attribute`` on every edge, then again on a random half."""
    edges = network.edges()
    for u, v in edges:
        network.set_edge_attribute(u, v, attribute,
                                   float(rng.uniform(0.1, 3.0)))
    for index in rng.permutation(len(edges))[: len(edges) // 2 + 1]:
        u, v = edges[index]
        network.set_edge_attribute(u, v, attribute,
                                   float(rng.uniform(0.1, 3.0)))


def assert_equals_networkx(network, rng, weight):
    index_of, nodes = network.node_index()
    assert nodes == network._geometry().node_list
    assert nodes == network.nodes()
    assert [index_of[node] for node in nodes] == list(range(len(nodes)))
    for source in rng.permutation(len(nodes))[:4].tolist():
        source = nodes[source]
        for cutoff in (None, float(rng.uniform(0.5, 4.0))):
            want = nx.single_source_dijkstra_path_length(
                network.graph, source, cutoff=cutoff, weight=weight)
            assert network.dijkstra_all(source, weight,
                                        cutoff=cutoff) == want
            row = network.dijkstra_array(source, weight, cutoff=cutoff)
            expected = np.full(len(nodes), np.inf)
            for node, distance in want.items():
                expected[index_of[node]] = distance
            assert row.tobytes() == expected.tobytes()


class TestOneDijkstra:
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS))
    def test_rows_equal_networkx(self, seed, kind):
        rng = np.random.default_rng(seed)
        network = build(kind, rng)
        assert_equals_networkx(network, rng, "length")
        reweight(network, rng, "length")
        assert_equals_networkx(network, rng, "length")
        reweight(network, rng, "time")
        assert_equals_networkx(network, rng, "time")
        reweight(network, rng, "time")
        assert_equals_networkx(network, rng, "time")
        assert_equals_networkx(network, rng, "length")

    def test_reweighting_replaces_the_slot(self):
        network = RoadNetwork.grid(3, 3)
        geometry = network._geometry()
        for u, v in network.edges():
            network.set_edge_attribute(u, v, "time", 2.0)
        network.dijkstra_array((0, 0), "time")
        network.set_edge_attribute((0, 0), (0, 1), "time", 3.0)
        network.dijkstra_array((0, 0), "time")
        assert network._geometry() is geometry
        slot = ("costs", "time")
        assert set(network._snapshot) == {"geometry", slot}
        assert network._snapshot[slot][0] == \
            network._edits["time"] == network.n_edges + 1
        # An edit to another attribute leaves the "time" slot alone.
        costs = network._snapshot[slot][1]
        network.set_edge_attribute((0, 0), (0, 1), "energy", 1.0)
        network.dijkstra_array((0, 0), "time")
        assert network._snapshot[slot][1] is costs

    def test_nan_cutoff_raises(self):
        network = RoadNetwork.grid(3, 3)
        for search in (network.dijkstra_array, network.dijkstra_all):
            with pytest.raises(ValueError, match="NaN"):
                search((0, 0), cutoff=float("nan"))
        # Every other cutoff keeps its meaning: inf bounds nothing, a
        # negative one leaves only the source.
        assert network.dijkstra_array((0, 0), cutoff=math.inf).tobytes() \
            == network.dijkstra_array((0, 0)).tobytes()
        assert network.dijkstra_all((0, 0), cutoff=-1.0) == {(0, 0): 0.0}

    def test_unknown_source_raises_key_error(self):
        network = RoadNetwork.grid(2, 2)
        for search in (network.dijkstra_array, network.dijkstra_all):
            with pytest.raises(KeyError):
                search((7, 7))
