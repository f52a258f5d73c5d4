"""Slow reference implementations that fast paths in ``src`` are
diffed against.  Not collected by pytest; imported by the tests.

``fit_edge_reference`` / ``fit_path_reference`` are the per-sample loop
fits of the travel-time models: every traversal is appended to a
``{key: {interval: [samples]}}`` store one at a time, and every
(key, interval) list is summarized on its own with
``Histogram.from_samples`` (or a ``GaussianMixture`` fit).  They return
the ``{key: TimeVaryingDistribution}`` a fitted model holds, in the
model's key order.

``skyline_reference`` is the route-skyline search on 2-element numpy
label arrays that ``SkylineRouter.skyline`` replaced; it is the oracle
only where ``max_labels`` never binds (when it binds, it can re-queue a
node forever).  ``_dominance_prune_pairwise`` is the k² pairwise
stochastic-dominance prune that ``dominance_prune`` replaced, and
``stochastic_pareto_reference`` the n² pairwise multi-objective FSD
check behind ``stochastic_pareto_front``.

``candidate_edges_scan`` and ``nearest_node_scan`` are the brute-force
scans behind ``RoadNetwork.candidate_edges`` and ``nearest_node``;
``match_reference`` is the per-pair Viterbi that
``HmmMapMatcher.match`` vectorised.  ``wasserstein_pairwise`` and
``reduce_reference`` are the pairwise W1 matrix and the pure-Python
forward selection behind ``wasserstein_matrix`` and
``reduce_scenarios``.  ``k_shortest_reference`` is networkx's Yen,
which ``RoadNetwork.k_shortest_paths`` ports; ``shortest_path_reference``,
``shortest_path_length_reference``, ``plan_route_reference`` and
``imitation_route_reference`` are networkx's Dijkstra behind
``shortest_path``, ``shortest_path_length``,
``TrajectoryGenerator.plan_route`` and ``ImitationRouter.route``, and
``grid_reference`` and ``random_geometric_reference`` the networkx
graphs the network's generators built; ``graph_layout`` lists what of
a graph's order they must reproduce.  ``check_trips_reference``
is the trip-by-trip check the travel-time fits ran before grouping.

``PointTrajectory`` is the list-of-``GpsPoint`` trajectory that the
columnar ``Trajectory`` replaced, and ``sample_edge_times_reference``
the per-edge loop behind ``sample_edge_times``: one scalar normal draw
and one 0-d ``diurnal_profile`` call per edge.
"""

import itertools
import math

import networkx as nx
import numpy as np

from repro._validation import check_finite_points, ensure_rng
from repro.datasets.traffic import diurnal_profile
from repro.datatypes import GpsPoint, Trajectory
from repro.decision.pareto import dominates
from repro.decision.stochastic import (
    first_order_dominates,
    second_order_dominates,
)
from repro.governance.uncertainty import (
    GaussianMixture,
    Histogram,
    TimeVaryingDistribution,
    wasserstein_distance,
)

FULL_DAY = ((0.0, 24 * 60.0),)


class _SampleStore:
    """Per-key, per-interval traversal-time samples, in arrival order."""

    def __init__(self, intervals, n_bins, representation, n_components):
        self.intervals = [tuple(map(float, pair)) for pair in intervals]
        self.n_bins = int(n_bins)
        self.representation = representation
        self.n_components = int(n_components)
        self.samples = {}

    def interval_index(self, minute):
        minute = float(minute) % (24 * 60)
        for index, (start, end) in enumerate(self.intervals):
            if start <= minute < end:
                return index
        midpoints = [
            abs((start + end) / 2 - minute) for start, end in self.intervals
        ]
        return int(np.argmin(midpoints))

    def add(self, key, minute, value):
        bucket = self.samples.setdefault(key, {})
        bucket.setdefault(self.interval_index(minute), []).append(
            float(value))

    def count(self, key):
        return sum(len(samples) for samples in self.samples[key].values())

    def summarize(self, samples):
        samples = np.asarray(samples)
        if self.representation == "gmm" and \
                len(samples) >= 3 * self.n_components:
            mixture = GaussianMixture.fit(
                samples, self.n_components,
                rng=np.random.default_rng(len(samples)))
            return mixture.to_histogram(self.n_bins)
        return Histogram.from_samples(samples, n_bins=self.n_bins)

    def distribution(self, key):
        bucket = self.samples[key]
        pooled = [v for samples in bucket.values() for v in samples]
        fallback = self.summarize(pooled)
        distributions = [
            self.summarize(bucket[index]) if index in bucket else fallback
            for index in range(len(self.intervals))
        ]
        return TimeVaryingDistribution(self.intervals, distributions)


def fit_edge_reference(trips, *, intervals=FULL_DAY, n_bins=25,
                       representation="histogram", n_components=2):
    """``EdgeCentricModel(...).fit(trips)._fitted``, one sample at a
    time; the clock advances by each edge's time."""
    store = _SampleStore(intervals, n_bins, representation, n_components)
    for path, edge_times, departure in trips:
        minute = float(departure)
        edges = list(zip(path, path[1:]))
        if len(edge_times) != len(edges):
            raise ValueError("edge_times must match the path edges")
        for edge, duration in zip(edges, edge_times):
            store.add(edge, minute, duration)
            minute += float(duration)
    return {key: store.distribution(key) for key in store.samples}


def fit_path_reference(trips, *, max_subpath_edges=6, min_support=5,
                       intervals=FULL_DAY, n_bins=25,
                       representation="histogram", n_components=2):
    """``PathCentricModel(...).fit(trips)._fitted``, one sub-path
    traversal at a time."""
    store = _SampleStore(intervals, n_bins, representation, n_components)
    for path, edge_times, departure in trips:
        edges = list(zip(path, path[1:]))
        if len(edge_times) != len(edges):
            raise ValueError("edge_times must match the path edges")
        starts = np.concatenate([[0.0], np.cumsum(edge_times)])
        for begin in range(len(edges)):
            limit = min(len(edges), begin + max_subpath_edges)
            for end in range(begin + 1, limit + 1):
                key = tuple(path[begin:end + 1])
                minute = float(departure) + float(starts[begin])
                duration = float(starts[end] - starts[begin])
                store.add(key, minute, duration)
    return {
        key: store.distribution(key)
        for key in store.samples
        if len(key) == 2 or store.count(key) >= min_support
    }


def skyline_reference(network, objectives, origin, destination, *,
                      max_labels=64):
    """Route skyline with numpy labels: ``(path, cost)`` pairs."""
    if origin == destination:
        raise ValueError("origin and destination must differ")

    def edge_cost(u, v):
        return np.array([float(network.edge_attribute(u, v, name, 0.0))
                         for name in objectives])

    def merge(existing, candidates):
        pool = list(existing)
        changed = False
        for cost, path in candidates:
            dominated = False
            for other_cost, _ in pool:
                if dominates(other_cost, cost) or np.allclose(other_cost,
                                                              cost):
                    dominated = True
                    break
            if dominated:
                continue
            pool = [
                (other_cost, other_path) for other_cost, other_path in pool
                if not dominates(cost, other_cost)
            ]
            pool.append((cost, path))
            changed = True
        if not changed:
            return None
        if len(pool) > max_labels:
            pool.sort(key=lambda label: label[0].sum())
            pool = pool[:max_labels]
        return pool

    labels = {origin: [(np.zeros(len(objectives)), [origin])]}
    queue = [origin]
    while queue:
        node = queue.pop(0)
        node_labels = list(labels.get(node, []))
        for successor in network.successors(node):
            cost_row = edge_cost(node, successor)
            candidates = [(cost + cost_row, path + [successor])
                          for cost, path in node_labels
                          if successor not in path]
            if not candidates:
                continue
            merged = merge(labels.get(successor, []), candidates)
            if merged is not None:
                labels[successor] = merged
                if successor not in queue:
                    queue.append(successor)
    return [(path, cost.copy()) for cost, path in
            labels.get(destination, [])]


def _dominance_prune_pairwise(candidates, *, order=1, tol=1e-9):
    """Indices of the candidates no other candidate dominates, by k²
    independent pairwise dominance calls (all of them when every one
    is dominated within tolerance)."""
    dominates_fn = (first_order_dominates if order == 1
                    else second_order_dominates)
    candidates = list(candidates)
    survivors = []
    for index, candidate in enumerate(candidates):
        dominated = False
        for other_index, other in enumerate(candidates):
            if other_index == index:
                continue
            if dominates_fn(other, candidate, tol=tol):
                dominated = True
                break
        if not dominated:
            survivors.append(index)
    if not survivors:
        survivors = list(range(len(candidates)))
    return survivors


def stochastic_pareto_reference(options, *, tol=1e-9):
    """Indices of the options no other option dominates, pair by pair:
    on every objective weakly FSD-better (``CDF >= other - tol`` on the
    pair's union of supports) and on at least one strictly (``CDF >
    other + tol`` somewhere).  All of them when every option is
    dominated within tolerance."""
    def compare(first, second):
        grid = np.union1d(first.support, second.support)
        mine, theirs = first.cdf(grid), second.cdf(grid)
        return (bool(np.all(mine >= theirs - tol)),
                bool(np.any(mine > theirs + tol)))

    options = [tuple(option) for option in options]
    survivors = []
    for index, option in enumerate(options):
        dominated = False
        for other_index, other in enumerate(options):
            if other_index == index:
                continue
            verdicts = [compare(mine, theirs)
                        for mine, theirs in zip(other, option)]
            if all(weak for weak, _ in verdicts) and any(
                    strict for _, strict in verdicts):
                dominated = True
                break
        if not dominated:
            survivors.append(index)
    return survivors or list(range(len(options)))


def candidate_edges_scan(network, point, radius):
    """Brute-force O(E) reference for ``RoadNetwork.candidate_edges``."""
    candidates = []
    for u, v in network.graph.edges():
        distance, fraction = network.project_point(point, u, v)
        if distance <= radius:
            candidates.append((u, v, distance, fraction))
    candidates.sort(key=lambda item: item[2])
    return candidates


def nearest_node_scan(network, point):
    """Brute-force O(V) reference for ``RoadNetwork.nearest_node``."""
    px, py = point
    best, best_distance = None, math.inf
    for node in network.graph.nodes():
        x, y = network.position(node)
        distance = math.hypot(px - x, py - y)
        if distance < best_distance:
            best, best_distance = node, distance
    return best


def _route_distance(matcher, candidate_a, candidate_b):
    """Network distance between two on-edge positions."""
    (u1, v1, _, f1) = candidate_a
    (u2, v2, _, f2) = candidate_b
    length_a = matcher.network.edge_length(u1, v1)
    length_b = matcher.network.edge_length(u2, v2)
    if (u1, v1) == (u2, v2) and f2 >= f1:
        return (f2 - f1) * length_a
    remaining = (1.0 - f1) * length_a
    index_of, _ = matcher.network.node_index()
    through = matcher._distances_from(v1, None)[index_of[u2]]
    if math.isinf(through):
        return math.inf
    return remaining + through + f2 * length_b


def match_reference(matcher, trajectory):
    """Pre-vectorization per-pair Viterbi for ``matcher.match``.

    Identical model with unbounded Dijkstra searches and pure-Python
    loops over per-point ``RoadNetwork.candidate_edges`` layers.
    """
    if not isinstance(trajectory, Trajectory):
        raise TypeError("trajectory must be a Trajectory")
    points = [(p.x, p.y) for p in trajectory]
    check_finite_points(points, "point")
    matcher._sync_revision()
    layers = []
    for index, point in enumerate(points):
        candidates = matcher.network.candidate_edges(
            point, matcher.candidate_radius)[: matcher.max_candidates]
        if not candidates:
            raise ValueError(
                f"no candidate edge within {matcher.candidate_radius} of "
                f"point {index}; the trajectory is off the map"
            )
        layers.append(candidates)
    emissions_arrays = [
        -0.5 * (np.array([c[2] for c in layer]) / matcher.sigma) ** 2
        for layer in layers
    ]
    scores = list(emissions_arrays[0])
    backpointers = []
    for step in range(1, len(layers)):
        straight = math.hypot(
            points[step][0] - points[step - 1][0],
            points[step][1] - points[step - 1][1],
        )
        new_scores = []
        pointers = []
        for j, candidate in enumerate(layers[step]):
            best_score, best_prev = -math.inf, 0
            for prev_index, previous in enumerate(layers[step - 1]):
                route = _route_distance(matcher, previous, candidate)
                if math.isinf(route):
                    continue
                transition = -abs(route - straight) / matcher.beta
                score = scores[prev_index] + transition
                if score > best_score:
                    best_score, best_prev = score, prev_index
            new_scores.append(best_score + emissions_arrays[step][j])
            pointers.append(best_prev)
        scores = new_scores
        backpointers.append(pointers)
        if all(math.isinf(-s) for s in scores):
            raise ValueError(
                f"no connected matching through point {step}; "
                "the network may be disconnected along the trace"
            )

    best = int(np.argmax(scores))
    chosen = [best]
    for pointers in reversed(backpointers):
        best = pointers[best]
        chosen.append(best)
    chosen.reverse()
    return [layers[i][c] for i, c in enumerate(chosen)]


def wasserstein_pairwise(histograms):
    """Brute-force pairwise W1 matrix: N² independent
    ``wasserstein_distance`` calls."""
    histograms = list(histograms)
    n = len(histograms)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = wasserstein_distance(
                histograms[i], histograms[j])
    return matrix


def reduce_reference(distance, probabilities, k):
    """Pure-Python forward selection: the representatives
    ``reduce_scenarios`` picks, in pick order."""
    n = len(probabilities)
    nearest = [float("inf")] * n
    selected = []
    for _ in range(int(k)):
        best_pick, best_cost = None, None
        for u in range(n):
            if u in selected:
                continue
            cost = sum(
                probabilities[i] * min(nearest[i], distance[i][u])
                for i in range(n)
            )
            if best_cost is None or cost < best_cost:
                best_pick, best_cost = u, cost
        selected.append(best_pick)
        nearest = [min(nearest[i], distance[i][best_pick])
                   for i in range(n)]
        if sum(p * d for p, d in zip(probabilities, nearest)) <= 0.0:
            break
    return selected


def _typed_search(network, source, target, search):
    """``search()`` with networkx's errors in the repo's types:
    :class:`KeyError` for a ``source`` or ``target`` not in the
    network's graph, :class:`ValueError` (same message) for no path."""
    for node in (source, target):
        if node not in network.graph:
            raise KeyError(f"node {node!r} is not in the network")
    try:
        return search()
    except nx.NetworkXNoPath as error:
        raise ValueError(str(error)) from error


def k_shortest_reference(network, source, target, k, weight="length"):
    """``nx.shortest_simple_paths`` cut after ``k`` paths, on the
    network's graph, with typed errors."""
    return _typed_search(network, source, target, lambda: list(
        itertools.islice(nx.shortest_simple_paths(
            network.graph, source, target, weight=weight), k)))


def shortest_path_reference(network, source, target, weight="length"):
    """``nx.dijkstra_path`` on the network's graph, with typed errors."""
    return _typed_search(network, source, target, lambda: nx.dijkstra_path(
        network.graph, source, target, weight=weight))


def shortest_path_length_reference(network, source, target,
                                   weight="length"):
    """``nx.dijkstra_path_length`` on the network's graph, with typed
    errors."""
    return _typed_search(
        network, source, target, lambda: nx.dijkstra_path_length(
            network.graph, source, target, weight=weight))


def plan_route_reference(generator, origin, destination, *, perturb=True):
    """``TrajectoryGenerator.plan_route`` on networkx: a cost per edge,
    drawn in edge order, and ``nx.dijkstra_path`` with a weight
    function reading them; typed errors."""
    network = generator.network
    weights = {}
    for u, v in network.edges():
        cost = network.edge_length(u, v)
        if perturb and generator.preference_noise > 0:
            cost *= float(np.exp(generator._rng.normal(
                0.0, generator.preference_noise)))
        weights[(u, v)] = cost
    return _typed_search(network, origin, destination, lambda: (
        nx.dijkstra_path(network.graph, origin, destination,
                         weight=lambda u, v, data: weights[(u, v)])))


def imitation_route_reference(router, origin, destination):
    """``ImitationRouter.route`` on networkx: ``nx.dijkstra_path``
    weighted by ``routing_cost``, with typed errors."""
    network = router.network
    return _typed_search(network, origin, destination, lambda: (
        nx.dijkstra_path(network.graph, origin, destination,
                         weight=lambda u, v, data: router.routing_cost(
                             u, v))))


def grid_reference(rows, cols, spacing=1.0, *, bidirectional=True):
    """The ``nx.DiGraph`` that ``RoadNetwork.grid`` built on networkx."""
    graph = nx.DiGraph()
    for r in range(rows):
        for c in range(cols):
            graph.add_node((r, c), pos=(c * spacing, r * spacing))
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr < rows and cc < cols:
                    graph.add_edge((r, c), (rr, cc), length=spacing)
                    if bidirectional:
                        graph.add_edge((rr, cc), (r, c), length=spacing)
    return graph


def random_geometric_reference(n_nodes, radius, rng=None, *, size=10.0):
    """The ``nx.DiGraph`` that ``RoadNetwork.random_geometric`` built on
    networkx: the largest of ``nx.strongly_connected_components``, as
    ``graph.subgraph(largest).copy()``."""
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    rng = ensure_rng(rng)
    coords = rng.uniform(0.0, size, size=(n_nodes, 2))
    graph = nx.DiGraph()
    for i, (x, y) in enumerate(coords):
        graph.add_node(i, pos=(float(x), float(y)))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            distance = float(np.linalg.norm(coords[i] - coords[j]))
            if distance <= radius and distance > 0:
                graph.add_edge(i, j, length=distance)
                graph.add_edge(j, i, length=distance)
    largest = max(nx.strongly_connected_components(graph), key=len)
    if len(largest) < 2:
        raise ValueError("generated graph is too sparse; increase radius")
    return graph.subgraph(largest).copy()


def graph_layout(graph):
    """Everything order-sensitive about a directed graph: nodes with
    their data, edges with their data, and every node's predecessors,
    each in iteration order."""
    return (list(graph.nodes(data=True)), list(graph.edges(data=True)),
            [list(graph.pred[node]) for node in graph])


def check_trips_reference(trips):
    """Check ``(path, edge_times, departure_minute)`` trips one by one;
    raise the ``ValueError`` that names the first bad one."""
    n_trips = 0
    for index, (path, edge_times, departure) in enumerate(trips):
        n_trips += 1
        path = tuple(path)
        times = np.asarray(edge_times, dtype=float)
        if times.shape != (max(len(path) - 1, 0),):
            raise ValueError(
                f"trip {index}: edge_times must match the path edges")
        departure = float(departure)
        if not (math.isfinite(departure) and np.isfinite(times).all()):
            raise ValueError(
                f"trip {index}: edge times and departure must be finite")
    if n_trips == 0:
        raise ValueError("fit needs at least one trip")


class PointTrajectory:
    """The per-point ``Trajectory`` that the columnar one replaced: a
    list of :class:`GpsPoint` objects, built once at construction.

    Only the timestamp checks it always had (two points, strictly
    increasing); it lets NaN and inf times through.
    """

    def __init__(self, points, object_id=None):
        converted = []
        for point in points:
            if isinstance(point, GpsPoint):
                converted.append(point)
            else:
                x, y, t = point
                converted.append(GpsPoint(x, y, t))
        if len(converted) < 2:
            raise ValueError("a trajectory needs at least two points")
        times = [p.t for p in converted]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(
                "trajectory timestamps must be strictly increasing")
        self._points = converted
        self.object_id = object_id

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index):
        return self._points[index]

    @property
    def points(self):
        return list(self._points)

    def coordinates(self):
        return np.array([[p.x, p.y] for p in self._points])

    def times(self):
        return np.array([p.t for p in self._points])

    def duration(self):
        return self._points[-1].t - self._points[0].t

    def length(self):
        return float(sum(a.distance_to(b)
                         for a, b in zip(self._points, self._points[1:])))

    def segment_speeds(self):
        distances = np.linalg.norm(np.diff(self.coordinates(), axis=0),
                                   axis=1)
        return distances / np.diff(self.times())

    def resample(self, interval):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        xs = self.coordinates()
        ts = self.times()
        new_times = np.arange(ts[0], ts[-1], interval)
        if new_times[-1] < ts[-1]:
            new_times = np.append(new_times, ts[-1])
        new_x = np.interp(new_times, ts, xs[:, 0])
        new_y = np.interp(new_times, ts, xs[:, 1])
        return PointTrajectory(
            [GpsPoint(x, y, t) for x, y, t in zip(new_x, new_y, new_times)],
            object_id=self.object_id)

    def with_noise(self, sigma, rng=None):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma!r}")
        rng = ensure_rng(rng)
        noise = rng.normal(0.0, sigma, size=(len(self), 2))
        return PointTrajectory(
            [GpsPoint(p.x + dx, p.y + dy, p.t)
             for p, (dx, dy) in zip(self._points, noise)],
            object_id=self.object_id)

    def dropped(self, keep_fraction, rng=None):
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction!r}")
        rng = ensure_rng(rng)
        kept = [self._points[0]]
        for point in self._points[1:-1]:
            if rng.random() < keep_fraction:
                kept.append(point)
        kept.append(self._points[-1])
        return PointTrajectory(kept, object_id=self.object_id)


def sample_edge_times_reference(simulator, edges, departure_minute=12 * 60,
                                rng=None):
    """``TrafficSimulator.sample_edge_times`` as a per-edge loop: one
    scalar draw for the trip factor, then per edge one scalar draw and
    one ``diurnal_profile`` call on the running clock."""
    rng = simulator._rng if rng is None else ensure_rng(rng)
    z = rng.normal()
    times = np.empty(len(edges))
    minute = float(departure_minute)
    for index, (u, v) in enumerate(edges):
        factor = float(diurnal_profile(minute))
        length = simulator.network.edge_length(u, v)
        base = length / (simulator._speeds[(u, v)] * factor)
        eps = rng.normal()
        scale = simulator._volatility[(u, v)]
        times[index] = base * math.exp(
            scale * (simulator.sigma_correlated * z
                     + simulator.sigma_independent * eps))
        minute += times[index]
    return times
