"""The array-owned ``RoadNetwork`` against networkx as a test oracle.

The network holds its graph as lists and arrays and ports networkx
3.6's searches, so on generated graphs -- ties, zero weights, a
missing weight (counts as 1), a ``None`` weight (edge skipped),
self-loops, disconnected pairs and unknown nodes -- each search must
return networkx's path or raise the same typed error:

* ``shortest_path`` and ``shortest_path_length``;
* ``TrajectoryGenerator.plan_route`` with perturbed costs, whose draws
  must leave the generator's stream where networkx's version left it;
* ``ImitationRouter.route``;
* ``random_geometric``'s node and edge order, which is networkx's
  ``subgraph(largest).copy()`` order.

The ``graph`` export must rebuild the graph a network was read from,
order included, and must refuse edits.  Without it, the runtime loads
no networkx: a subprocess imports ``repro``, serves a route and a
distance query and runs the taxi example's pipeline.
"""

import os
import pathlib
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import RoadNetwork
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import ImitationRouter

from .oracles import (
    graph_layout,
    grid_reference,
    imitation_route_reference,
    plan_route_reference,
    random_geometric_reference,
    shortest_path_length_reference,
    shortest_path_reference,
)

#: Weights drawn for the ``"w"`` attribute: ``MISSING`` leaves it off.
MISSING = "missing"
WEIGHTS = [MISSING, None, 0, 1, 2, 0.5, 1.0, 2.0]


def outcome(search, *args, **kwargs):
    """``("ok", result)`` or ``(error type, message)``."""
    try:
        return "ok", search(*args, **kwargs)
    except (KeyError, ValueError) as error:
        return type(error), str(error)


@st.composite
def digraphs(draw):
    """A small ``nx.DiGraph`` in a drawn insertion order, with a
    positive ``length`` and a drawn ``"w"`` on every edge."""
    n_nodes = draw(st.integers(1, 7))
    graph = nx.DiGraph()
    for node in draw(st.permutations(range(n_nodes))):
        graph.add_node(node, pos=(float(node % 3), float(node // 3)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_nodes - 1),
                  st.integers(0, n_nodes - 1)),
        unique=True, max_size=3 * n_nodes))
    for u, v in pairs:
        data = {"length": draw(st.sampled_from([0.5, 1, 1.0, 2.0]))}
        weight = draw(st.sampled_from(WEIGHTS))
        if weight != MISSING:
            data["w"] = weight
        graph.add_edge(u, v, **data)
    return graph


def endpoints(data, nodes):
    """A drawn node of ``nodes`` or, now and then, an unknown one."""
    return data.draw(st.sampled_from(list(nodes) + [99]))


class TestShortestPathDifferential:
    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(graph=digraphs(), weight=st.sampled_from(["length", "w"]),
           data=st.data())
    def test_paths_and_lengths_equal_networkx(self, graph, weight, data):
        network = RoadNetwork(graph)
        assert graph_layout(network.graph) == graph_layout(graph)
        for _ in range(4):
            source = endpoints(data, graph)
            target = endpoints(data, graph)
            assert outcome(network.shortest_path, source, target,
                           weight) == \
                outcome(shortest_path_reference, network, source, target,
                        weight)
            assert outcome(network.shortest_path_length, source, target,
                           weight) == \
                outcome(shortest_path_length_reference, network, source,
                        target, weight)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(rows=st.integers(2, 6), cols=st.integers(2, 6),
           bidirectional=st.booleans(), data=st.data())
    def test_grid_ties_in_networkx_order(self, rows, cols, bidirectional,
                                         data):
        network = RoadNetwork.grid(rows, cols, bidirectional=bidirectional)
        for _ in range(4):
            source = endpoints(data, network.nodes())
            target = endpoints(data, network.nodes())
            assert outcome(network.shortest_path, source, target) == \
                outcome(shortest_path_reference, network, source, target)


class TestRoutingDifferential:
    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), noise=st.sampled_from(
        [0.0, 0.15, 0.6]), perturb=st.booleans(), data=st.data())
    def test_plan_route_equals_networkx(self, seed, noise, perturb, data):
        network = RoadNetwork.grid(4, 5)
        simulator = TrafficSimulator(network, rng=0)
        ours, theirs = (TrajectoryGenerator(
            simulator, preference_noise=noise, rng=seed) for _ in range(2))
        for _ in range(3):
            origin = endpoints(data, network.nodes())
            destination = endpoints(data, network.nodes())
            assert outcome(ours.plan_route, origin, destination,
                           perturb=perturb) == \
                outcome(plan_route_reference, theirs, origin,
                        destination, perturb=perturb)
            # The costs were drawn before the search, in edge order.
            assert ours._rng.random() == theirs._rng.random()

    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), one_way=st.booleans(),
           data=st.data())
    def test_imitation_route_equals_networkx(self, seed, one_way, data):
        network = RoadNetwork.grid(4, 4, bidirectional=not one_way)
        generator = TrajectoryGenerator(TrafficSimulator(network, rng=seed),
                                        rng=seed)
        experts = [generator.plan_route((0, 0), (3, 3)) for _ in range(4)]
        router = ImitationRouter(network).fit(experts)
        for _ in range(4):
            origin = endpoints(data, network.nodes())
            destination = endpoints(data, network.nodes())
            assert outcome(router.route, origin, destination) == \
                outcome(imitation_route_reference, router, origin,
                        destination)


class TestGeneratorsDifferential:
    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 60),
           radius=st.floats(0.5, 4.0))
    @example(seed=3, n_nodes=400, radius=2.5)
    def test_random_geometric_order_equals_networkx(self, seed, n_nodes,
                                                    radius):
        # Small radii keep components under half the graph, where
        # networkx lists the copy's nodes in set order.
        ours = outcome(RoadNetwork.random_geometric, n_nodes, radius,
                       rng=seed)
        theirs = outcome(random_geometric_reference, n_nodes, radius,
                         rng=seed)
        if ours[0] != "ok":
            assert ours == theirs
            return
        network, graph = ours[1], theirs[1]
        assert network.nodes() == list(graph)
        assert network.edges() == list(graph.edges())
        assert graph_layout(network.graph) == graph_layout(graph)

    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(rows=st.integers(2, 6), cols=st.integers(2, 6),
           spacing=st.sampled_from([1.0, 1, 0.5]),
           bidirectional=st.booleans())
    def test_grid_export_equals_the_networkx_grid(self, rows, cols, spacing,
                                                  bidirectional):
        network = RoadNetwork.grid(rows, cols, spacing,
                                   bidirectional=bidirectional)
        assert graph_layout(network.graph) == graph_layout(
            grid_reference(rows, cols, spacing, bidirectional=bidirectional))


class TestGraphExport:
    def test_export_refuses_edits(self):
        graph = RoadNetwork.grid(3, 3).graph
        edits = [
            lambda: graph.add_node("new", pos=(9.0, 9.0)),
            lambda: graph.add_edge((0, 0), (2, 2), length=1.0),
            lambda: graph.remove_node((0, 0)),
            lambda: graph.remove_edge((0, 0), (0, 1)),
        ]
        for edit in edits:
            with pytest.raises(nx.NetworkXError, match="Frozen"):
                edit()
        assert graph_layout(graph) == graph_layout(grid_reference(3, 3))

    def test_export_follows_attribute_edits(self):
        network = RoadNetwork.grid(3, 3)
        before = network.graph
        assert network.graph is before  # built once
        network.set_edge_attribute((0, 0), (0, 1), "time", 4.0)
        after = network.graph
        assert after is not before
        assert after.edges[(0, 0), (0, 1)] == {"length": 1.0, "time": 4.0}
        assert "time" not in before.edges[(0, 0), (0, 1)]

    def test_reading_an_export_rebuilds_the_network(self):
        graph = nx.DiGraph()
        for node in (2, 0, 1):
            graph.add_node(node, pos=(float(node), 0.0))
        # Predecessor order differs from node order at node 1.
        graph.add_edge(2, 1, length=1.0)
        graph.add_edge(0, 1, length=1.0, w=None)
        graph.add_edge(1, 2, length=2.0)
        network = RoadNetwork(graph)
        assert graph_layout(network.graph) == graph_layout(graph)
        again = RoadNetwork(network.graph)
        assert graph_layout(again.graph) == graph_layout(graph)
        assert network.edges() == again.edges() == list(graph.edges())


ROOT = pathlib.Path(__file__).resolve().parent.parent

RUNTIME_SCRIPT = """
import runpy, sys
import numpy as np
import repro
from repro import DecisionServer, RoadNetwork
from repro.datasets import TrafficSimulator
from repro.decision import DeadlineUtility, StochasticRouter
from repro.governance.uncertainty import EdgeCentricModel

network = RoadNetwork.grid(6, 6)
simulator = TrafficSimulator(network, rng=0)
rng = np.random.default_rng(1)
trips = [(path, simulator.sample_edge_times(network.path_edges(path), 480,
                                            rng=rng), 480.0)
         for path in network.k_shortest_paths((0, 0), (5, 5), 4)
         for _ in range(20)]
model = EdgeCentricModel(n_bins=20).fit(trips)
server = DecisionServer(router=StochasticRouter(network, model,
                                                n_candidates=4),
                        network=network, utility=DeadlineUtility(12.0))
with server:
    assert server.route((0, 0), (5, 5), departure_minute=480.0).ok
    assert server.distances((0, 0), cutoff=3.0).ok
example = runpy.run_path(sys.argv[1], run_name="taxi_example")
state, report = example["build_pipeline"]().run()
assert state["skyline"] and state["eco"], report
print("networkx" in sys.modules)
"""


class TestRuntimeWithoutNetworkx:
    def test_import_serve_and_taxi_pipeline_load_no_networkx(self):
        path = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", RUNTIME_SCRIPT,
             str(ROOT / "examples" / "traffic_routing.py")],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip().splitlines()[-1] == "False"
