"""Road networks: the spatial substrate for the paper's running examples.

The tutorial's flagship decision task is stochastic route planning over
an uncertain road network (the autonomous-taxi-to-airport example of
§I).  :class:`RoadNetwork` provides the directed, spatially-embedded
graph all of those components share: nodes with planar coordinates,
edges with lengths, geometric queries for map matching, and classic
path utilities.

The paper's systems run on real networks (OpenStreetMap extracts); the
generators here (:meth:`RoadNetwork.grid`,
:meth:`RoadNetwork.random_geometric`) synthesize networks with the same
structural features — bounded degree, planar embedding, alternative
routes between most origin-destination pairs — with known ground truth.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
import threading

import networkx as nx
import numpy as np

from .._validation import check_finite_points, ensure_rng

__all__ = ["RoadNetwork"]


def _memoized(store, key, stamp, lock, build, *args):
    """``build(*args)``, memoized in ``store[key]`` while ``stamp`` holds.

    The one lazy-build idiom of the network's snapshots: a fast
    unguarded read of the ``(stamp, value)`` tuple installed at
    ``store[key]`` (one tuple, so a reader never pairs a stale stamp
    with a fresh value), then a re-check and build under ``lock``, so
    a build runs once however many threads race the first query.
    """
    entry = store.get(key)
    if entry is None or entry[0] != stamp:
        with lock:
            entry = store.get(key)
            if entry is None or entry[0] != stamp:
                entry = store[key] = (stamp, build(*args))
    return entry[1]


def _check_nodes(graph, *nodes):
    """Raise :class:`KeyError` for the first of ``nodes`` not in
    ``graph``."""
    for node in nodes:
        if node not in graph:
            raise KeyError(f"node {node!r} is not in the network")


@contextlib.contextmanager
def _typed_path_errors(graph, *nodes):
    """Run a networkx path search over ``nodes`` with the repo's error
    types: :class:`KeyError` for a node not in ``graph``,
    :class:`ValueError` when no path exists."""
    _check_nodes(graph, *nodes)
    try:
        yield
    except nx.NetworkXNoPath as error:
        raise ValueError(str(error)) from error


def _bidirectional_dijkstra(adjacency, source, target, ignore_nodes,
                            ignore_edges):
    """networkx 3.6's ``_bidirectional_dijkstra``, the search inside its
    Yen, over integer adjacency lists: ``adjacency`` is the pair of
    successor and predecessor rows of ``(weight, neighbour)``.

    Returns ``(length, path)`` of a shortest path that avoids the
    nodes in ``ignore_nodes`` and the edges in ``ignore_edges``, or
    ``None`` when there is none.  ``ignore_edges`` is a pair of dicts,
    ``u -> {v}`` and ``v -> {u}``, so a settled node's blocked
    neighbours are looked up once per direction.  It alternates
    directions, counts heap pushes and keeps the first best meeting
    point exactly as networkx does, so it returns the same path.
    Paths are kept as parent pointers, not per-node lists: a node's
    parent is set only while it is unsettled, so the chain behind a
    settled node never changes.
    """
    if source in ignore_nodes or target in ignore_nodes:
        return None
    if source == target:
        return 0, [source]
    settled = ({}, {})
    seen = ({source: 0}, {target: 0})
    parents = ({}, {})
    fringe = ([(0, 0, source)], [(0, 1, target)])
    pushes = 2
    push, pop = heapq.heappush, heapq.heappop
    meet = best = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        heap = fringe[direction]
        dist, _, v = pop(heap)
        done = settled[direction]
        if v in done:
            continue
        done[v] = dist
        if v in settled[1 - direction]:
            node, forward, backward = meet
            path = [node]
            while forward is not None:
                path.append(forward)
                forward = parents[0].get(forward)
            path.reverse()
            while backward is not None:
                path.append(backward)
                backward = parents[1].get(backward)
            return best, path
        reached, parent = seen[direction], parents[direction]
        other = seen[1 - direction]
        blocked = ignore_edges[direction].get(v, ())
        for weight, w in adjacency[direction][v]:
            if w in ignore_nodes or w in blocked:
                continue
            length = dist + weight
            if w in done:
                if length < done[w]:
                    raise ValueError(
                        "Contradictory paths found: negative weights?")
                continue
            known = reached.get(w)
            if known is None or length < known:
                reached[w] = length
                push(heap, (length, pushes, w))
                pushes += 1
                parent[w] = v
                if w in other:
                    total = seen[0][w] + seen[1][w]
                    if meet is None or best > total:
                        best = total
                        meet = (w, parents[0].get(w), parents[1].get(w))
    return None


def _yen(adjacency, source, target, k):
    """The first ``k`` paths of networkx 3.6's ``shortest_simple_paths``
    (Yen's algorithm and its ``PathBuffer``) over integer adjacency,
    the pair of successor and predecessor rows.

    Root lengths are summed edge by edge from 0, as networkx's ``sum``
    does, and candidates are heap-ordered by ``(length, push count)``,
    so ties resolve as in networkx.  Returns index lists, empty when no
    path exists.
    """
    first = _bidirectional_dijkstra(adjacency, source, target, (),
                                    ({}, {}))
    if first is None:
        return []
    found = []
    heap = [(first[0], 0, first[1])]
    queued = {tuple(first[1])}
    counter = itertools.count(1)
    while heap:
        path = heapq.heappop(heap)[2]
        queued.remove(tuple(path))
        found.append(path)
        if len(found) == k:
            break
        ignore_nodes, ignore_edges = set(), ({}, {})
        root_length = 0
        for i in range(1, len(path)):
            root = path[:i]
            if i > 1:
                u, v = path[i - 2], path[i - 1]
                root_length += next(w for w, x in adjacency[0][u] if x == v)
            for other in found:
                if other[:i] == root:
                    u, v = other[i - 1], other[i]
                    ignore_edges[0].setdefault(u, set()).add(v)
                    ignore_edges[1].setdefault(v, set()).add(u)
            spur = _bidirectional_dijkstra(adjacency, root[-1], target,
                                           ignore_nodes, ignore_edges)
            if spur is not None:
                candidate = root[:-1] + spur[1]
                key = tuple(candidate)
                if key not in queued:
                    heapq.heappush(heap, (root_length + spur[0],
                                          next(counter), candidate))
                    queued.add(key)
            ignore_nodes.add(root[-1])
    return found


class _GeometryIndex:
    """The network's one lazily built snapshot: geometry, grid, adjacency.

    Built once per network revision (keyed on the graph shape and the
    ``length`` edits) and shared by every geometric query and every
    array Dijkstra.  It fixes one node order (``node_list`` and its
    inverse ``index_of``) for all of them.  The grid buckets edges by
    their bounding boxes and nodes by their cells, so
    ``candidate_edges`` and ``nearest_node`` inspect only nearby cells
    instead of scanning the whole graph.
    """

    def __init__(self, graph, lock):
        self._graph = graph
        self.edge_list = list(graph.edges())
        self.node_list = list(graph.nodes())
        positions = {
            node: graph.nodes[node]["pos"] for node in self.node_list
        }
        self.node_xy = np.asarray(
            [positions[node] for node in self.node_list], dtype=float
        ).reshape(len(self.node_list), 2)
        if self.edge_list:
            self.a = np.asarray(
                [positions[u] for u, _ in self.edge_list], dtype=float)
            self.b = np.asarray(
                [positions[v] for _, v in self.edge_list], dtype=float)
        else:
            self.a = np.zeros((0, 2))
            self.b = np.zeros((0, 2))
        self.ab = self.b - self.a
        self.norm2 = (self.ab ** 2).sum(axis=1)

        # Uniform grid over the node bounding box.  Cell size targets a
        # handful of edges per cell; degenerate (empty / point) networks
        # collapse to a single cell.
        lo = self.node_xy.min(axis=0) if len(self.node_list) else \
            np.zeros(2)
        hi = self.node_xy.max(axis=0) if len(self.node_list) else \
            np.zeros(2)
        span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        n_edges = max(len(self.edge_list), 1)
        self.cell = span / math.ceil(math.sqrt(n_edges)) if span > 0 \
            else 1.0
        self.origin = lo
        shape = np.maximum(
            np.ceil((hi - lo) / self.cell).astype(int) + 1, 1)
        self.nx_cells, self.ny_cells = int(shape[0]), int(shape[1])

        # Each edge is bucketed in the cells its bounding box covers,
        # ``_edge_lo`` to ``_edge_hi``; candidate tables grow from these.
        self._edge_lo = self._cell_of(np.minimum(self.a, self.b))
        self._edge_hi = self._cell_of(np.maximum(self.a, self.b))
        self._lock = lock
        self._tables = {}
        self._adjacency = {}

        # Per-edge endpoint node indices (rows of ``node_list``) and
        # lengths, so the map matcher never goes back to the graph per
        # candidate.
        self.index_of = {node: i for i, node in enumerate(self.node_list)}
        self.edge_u = np.asarray(
            [self.index_of[u] for u, _ in self.edge_list], dtype=np.intp)
        self.edge_v = np.asarray(
            [self.index_of[v] for _, v in self.edge_list], dtype=np.intp)
        self.edge_length = np.asarray(
            [length for _, _, length in graph.edges(data="length")],
            dtype=float)

        self._node_cells = {}
        if len(self.node_list):
            for index, (cx, cy) in enumerate(self._cell_of(self.node_xy)):
                self._node_cells.setdefault((cx, cy), []).append(index)
        self._node_cells = {
            key: np.asarray(indices, dtype=np.intp)
            for key, indices in self._node_cells.items()
        }

    def _cell_of(self, points):
        """Cell coordinates of finite ``(..., 2)`` points, clamped into
        the grid (an off-map point gets the nearest cell) *before* the
        int cast, so a far-off point cannot overflow it."""
        cells = np.floor(
            (np.asarray(points, dtype=float) - self.origin) / self.cell)
        return np.clip(cells, 0, (self.nx_cells - 1, self.ny_cells - 1)) \
            .astype(int)

    def project_many(self, points, indices):
        """Vectorized point-to-segment projection over edge ``indices``.

        ``points`` is ``(..., 2)`` and ``indices`` ``(..., L)`` with the
        same leading shape (one point against ``L`` edges, or a row of
        edges per point).  Returns ``(distances, fractions)`` shaped like
        ``indices``, matching :meth:`RoadNetwork.project_point` on each
        edge.
        """
        points = np.asarray(points, dtype=float)[..., None, :]
        # ``take`` gathers rows several times faster than ``a[indices]``.
        a = self.a.take(indices, axis=0)
        ab = self.ab.take(indices, axis=0)
        norm2 = self.norm2.take(indices)
        rel = points - a
        with np.errstate(invalid="ignore"):
            fractions = np.where(
                norm2 > 0,
                (rel * ab).sum(axis=-1) / np.where(norm2 > 0, norm2, 1.0),
                0.0,
            )
        fractions = np.clip(fractions, 0.0, 1.0)
        closest = a + fractions[..., None] * ab
        distances = np.hypot(points[..., 0] - closest[..., 0],
                             points[..., 1] - closest[..., 1])
        return distances, fractions

    def candidate_table(self, radius):
        """The candidate table serving queries of ``radius``.

        An ``(nx_cells, ny_cells, width)`` array: row ``(cx, cy)`` lists,
        ascending and padded with -1, every edge bucketed within
        ``reach = ceil(radius / cell)`` cells of ``(cx, cy)``.  For a
        point whose :meth:`_cell_of` is ``(cx, cy)`` that is a
        superset of the edges within ``radius``: the query disk lies
        inside the block, clamped or not.

        Keyed by reach, not radius, so nearby radii share one table;
        a row covers ``(2 * reach + 1) ** 2`` cells, so memory grows
        with the square of the reach.  Built once per index.
        """
        reach = max(math.ceil(min(radius / self.cell,
                                  max(self.nx_cells, self.ny_cells))), 0)
        return _memoized(self._tables, reach, None, self._lock,
                         self._build_candidate_table, reach)

    def _build_candidate_table(self, reach):
        """Row ``(cx, cy)``: every edge whose bucket block, grown by
        ``reach`` cells on each side, covers the cell, ascending."""
        n_cells = self.nx_cells * self.ny_cells
        limit = (self.nx_cells - 1, self.ny_cells - 1)
        lo = np.clip(self._edge_lo - reach, 0, limit)
        hi = np.clip(self._edge_hi + reach, 0, limit)
        # Enumerate every (edge, cell) pair, edge by edge, column by
        # column of each edge's block.
        heights = hi[:, 1] - lo[:, 1] + 1
        counts = (hi[:, 0] - lo[:, 0] + 1) * heights
        offsets = np.arange(counts.sum()) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        dx, dy = np.divmod(offsets, np.repeat(heights, counts))
        cells = np.repeat(lo[:, 0] * self.ny_cells + lo[:, 1], counts) \
            + dx * self.ny_cells + dy
        # A stable sort by cell keeps each cell's edges ascending; the
        # narrowest key dtype lets numpy pick a radix sort.
        order = np.argsort(cells.astype(np.min_scalar_type(n_cells)),
                           kind="stable")
        cells = cells[order]
        filled = np.bincount(cells, minlength=n_cells)
        slots = np.arange(len(cells)) - (np.cumsum(filled) - filled)[cells]
        table = np.full((n_cells, max(int(filled.max(initial=0)), 1)), -1,
                        dtype=np.int32)
        table[cells, slots] = np.repeat(
            np.arange(len(counts), dtype=np.int32), counts)[order]
        return table.reshape(self.nx_cells, self.ny_cells, -1)

    def adjacency(self, weight, edits, *, reverse=False):
        """Integer adjacency by ``weight``: ``adjacency[i]`` lists
        ``(edge_weight, successor_index)`` over ``node_list`` rows, in
        the graph's successor order; with ``reverse``, ``(edge_weight,
        predecessor_index)`` in its predecessor order.

        Weights follow networkx: an edge without ``weight`` weighs 1,
        and one whose ``weight`` is ``None`` is left out.  One slot per
        (weight, direction), stamped with ``edits``, the count of
        :meth:`RoadNetwork.set_edge_attribute` calls on ``weight``: a
        re-weighting replaces the slot.
        """
        key = ("reverse", weight) if reverse else weight
        return _memoized(self._adjacency, key, edits, self._lock,
                         self._build_adjacency, weight,
                         self._graph.pred if reverse else self._graph.succ)

    def _build_adjacency(self, weight, neighbours):
        rows = []
        for node in self.node_list:
            row = []
            for other, data in neighbours[node].items():
                value = data.get(weight, 1)
                if value is not None:
                    row.append((float(value), self.index_of[other]))
            rows.append(row)
        return rows

    #: Max (point, edge) slots projected at once by
    #: :meth:`trace_candidates`; bounds its scratch memory when a
    #: table row holds many edges.
    _GATHER_SLOTS = 1 << 18

    def trace_candidates(self, points, radius, limit):
        """:meth:`RoadNetwork.candidate_edges` for a whole trace at once.

        One table row per point, one broadcast projection and one
        stable sort.  Returns ``(edges, distances, fractions, counts)``:
        three ``(T, K)`` arrays whose row ``t`` holds, as edge indices,
        ``candidate_edges(points[t], radius)[:limit]`` with the same
        float bits and tie order, and ``counts[t]``, the number of real
        slots in that row (the rest is padding).  Non-finite points
        raise :class:`ValueError` naming the first one's index.
        """
        points = check_finite_points(points, "point").reshape(-1, 2)
        if not len(self.edge_list):
            empty = np.zeros((len(points), 0))
            return (empty.astype(np.intp), empty, empty,
                    np.zeros(len(points), dtype=np.intp))
        table = self.candidate_table(radius)
        cx, cy = self._cell_of(points).T
        edges = table[cx, cy]
        distances = np.empty(edges.shape)
        fractions = np.empty(edges.shape)
        step = max(self._GATHER_SLOTS // edges.shape[1], 1)
        for start in range(0, len(points), step):
            chunk = slice(start, start + step)
            distances[chunk], fractions[chunk] = self.project_many(
                points[chunk], edges[chunk])
        keep = (edges >= 0) & (distances <= radius)
        counts = np.minimum(keep.sum(axis=1), limit)
        width = int(counts.max())
        order = np.argsort(np.where(keep, distances, np.inf), axis=1,
                           kind="stable")[:, :width]
        # Flat indices into the row-major arrays: one ``take`` each.
        order += np.arange(0, edges.size, edges.shape[1])[:, None]
        return (edges.take(order), distances.take(order),
                fractions.take(order), counts)

    def _ring_nodes(self, center, ring):
        """Node indices in the cells at Chebyshev distance ``ring``."""
        cx, cy = center
        cells = []
        if ring == 0:
            cells.append((cx, cy))
        else:
            for dx in range(-ring, ring + 1):
                cells.append((cx + dx, cy - ring))
                cells.append((cx + dx, cy + ring))
            for dy in range(-ring + 1, ring):
                cells.append((cx - ring, cy + dy))
                cells.append((cx + ring, cy + dy))
        buckets = [
            self._node_cells[cell] for cell in cells
            if cell in self._node_cells
        ]
        if not buckets:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(buckets)

    def nearest_node_index(self, point):
        """Index (into ``node_list``) of the node closest to ``point``.

        Expanding-ring search from the query's cell, clamped into the
        grid: cells at Chebyshev ring ``k`` from it contain no point
        closer than ``(k - 1) * cell`` (along a clamped axis the query
        lies beyond the grid edge, which only adds distance), so the
        search stops as soon as the best distance found beats that lower
        bound for every unvisited ring.  The rings end at the farthest
        populated cell, so a query far off the map walks at most the
        grid, never the empty space between it and the query.
        """
        if not len(self.node_list):
            return None
        px, py = float(point[0]), float(point[1])
        center = tuple(int(c) for c in self._cell_of((px, py)))
        # Rings needed to cover every populated cell from the center.
        max_ring = max(
            max(abs(cx - center[0]), abs(cy - center[1]))
            for cx, cy in self._node_cells
        )
        best_index, best_distance = None, math.inf
        for ring in range(max_ring + 1):
            if best_index is not None and \
                    (ring - 1) * self.cell > best_distance:
                break
            indices = np.sort(self._ring_nodes(center, ring))
            if not len(indices):
                continue
            xy = self.node_xy[indices]
            distances = np.hypot(px - xy[:, 0], py - xy[:, 1])
            argmin = int(np.argmin(distances))
            distance = float(distances[argmin])
            index = int(indices[argmin])
            # Ties break toward the lowest node index, matching the
            # brute-force scan in graph iteration order.
            if distance < best_distance or (
                    distance == best_distance and index < best_index):
                best_distance = distance
                best_index = index
        return best_index


class RoadNetwork:
    """A directed, spatially embedded road graph.

    Nodes are arbitrary hashables with a ``pos=(x, y)`` attribute; edges
    carry at least a positive ``length``.  Additional per-edge data (speed
    distributions, observed weights) is attached by the governance layer.

    **Thread-safety contract:** every *query* method (geometry lookups,
    ``candidate_edges``, ``nearest_node``, Dijkstra variants, path
    utilities) is safe to call from many threads concurrently — the
    lazily built snapshot and its tables are constructed under a lock
    and installed atomically, so concurrent first callers never
    observe a torn snapshot and never duplicate a build.  *Mutation*
    (``set_edge_attribute``, editing ``graph`` in place,
    ``invalidate_geometry``) is not synchronized against concurrent
    queries; quiesce queries before mutating, exactly as before.
    """

    def __init__(self, graph=None):
        self._graph = graph if graph is not None else nx.DiGraph()
        for node, data in self._graph.nodes(data=True):
            if "pos" not in data:
                raise ValueError(f"node {node!r} is missing a 'pos' attribute")
        for u, v, data in self._graph.edges(data=True):
            if data.get("length", 0) <= 0:
                raise ValueError(f"edge ({u!r}, {v!r}) needs a positive length")
        self._init_caches()

    def _init_caches(self):
        """Fresh snapshot holders + the lock that guards their builds."""
        self._cache_lock = threading.RLock()
        # Per-attribute count of set_edge_attribute calls: part of the
        # key of every snapshot that reads that attribute.
        self._edits = {}
        # The _GeometryIndex, installed by _memoized under one key.
        self._snapshot = {}

    def __getstate__(self):
        """Pickle without the lock; snapshots rebuild lazily on load.

        Dropping the caches also keeps content fingerprints (and
        process-executor shipping) independent of how warm this
        network's lazy indexes happen to be.
        """
        state = self.__dict__.copy()
        state.pop("_cache_lock", None)
        state.pop("_edits", None)
        state.pop("_snapshot", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_caches()

    # -- construction ------------------------------------------------------

    @classmethod
    def grid(cls, rows, cols, spacing=1.0, *, bidirectional=True):
        """A ``rows x cols`` Manhattan grid with edge length ``spacing``.

        Nodes are ``(r, c)`` tuples positioned at ``(c*spacing, r*spacing)``.
        """
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
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
        return cls(graph)

    @classmethod
    def random_geometric(cls, n_nodes, radius, rng=None, *, size=10.0):
        """Random geometric graph on ``[0, size]^2`` with connect radius.

        Keeps only the largest strongly connected component so every pair
        of retained nodes is mutually reachable.
        """
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
        components = list(nx.strongly_connected_components(graph))
        if not components:
            raise ValueError("generated graph has no edges; increase radius")
        largest = max(components, key=len)
        if len(largest) < 2:
            raise ValueError("generated graph is too sparse; increase radius")
        return cls(graph.subgraph(largest).copy())

    # -- protocol -----------------------------------------------------------

    def __repr__(self):
        return f"RoadNetwork(nodes={self.n_nodes}, edges={self.n_edges})"

    @property
    def graph(self):
        """The underlying :class:`networkx.DiGraph` (shared, not copied)."""
        return self._graph

    @property
    def n_nodes(self):
        return self._graph.number_of_nodes()

    @property
    def n_edges(self):
        return self._graph.number_of_edges()

    def nodes(self):
        return list(self._graph.nodes())

    def edges(self):
        """All edges as ``(u, v)`` tuples."""
        return list(self._graph.edges())

    def position(self, node):
        """The ``(x, y)`` coordinates of ``node``."""
        return tuple(self._graph.nodes[node]["pos"])

    def edge_length(self, u, v):
        return float(self._graph.edges[u, v]["length"])

    def has_edge(self, u, v):
        return self._graph.has_edge(u, v)

    def successors(self, node):
        if node not in self._graph:
            raise KeyError(f"node {node!r} is not in the network")
        return list(self._graph.successors(node))

    def set_edge_attribute(self, u, v, key, value):
        """Attach governance data (weights, distributions) to an edge.

        Snapshots that read ``key`` (Dijkstra adjacency weighted by it,
        or the geometry index for ``"length"``) rebuild on next use.
        """
        if not self._graph.has_edge(u, v):
            raise KeyError(f"no edge ({u!r}, {v!r})")
        self._graph.edges[u, v][key] = value
        with self._cache_lock:
            self._edits[key] = self._edits.get(key, 0) + 1

    def edge_attribute(self, u, v, key, default=None):
        if not self._graph.has_edge(u, v):
            raise KeyError(f"no edge ({u!r}, {v!r})")
        return self._graph.edges[u, v].get(key, default)

    # -- geometry ------------------------------------------------------------

    def _revision(self, attribute):
        """Cheap ``(n_nodes, n_edges, edits)`` key of snapshots that read
        edge ``attribute``: the graph shape and how many times
        :meth:`set_edge_attribute` set ``attribute``.

        Uses the successor dicts directly: ``number_of_edges()`` walks a
        degree view and is too slow to run per geometric query.
        """
        edits = self._edits.get(attribute, 0)
        succ = getattr(self._graph, "_succ", None)
        if succ is None:  # non-standard graph implementation
            return (self._graph.number_of_nodes(),
                    self._graph.number_of_edges(), edits)
        return len(succ), sum(map(len, succ.values())), edits

    def _geometry(self):
        """The network's snapshot (:class:`_GeometryIndex`), lazily built.

        The snapshot caches node/edge coordinates and lengths as numpy
        arrays, a uniform grid and the per-weight integer adjacency,
        keyed on ``(n_nodes, n_edges)`` and the ``"length"`` edits:
        adding or removing nodes/edges, or setting a length through
        :meth:`set_edge_attribute`, rebuilds it automatically.  In-place
        *coordinate* mutation of an existing node is not detectable this
        way — call :meth:`invalidate_geometry` after moving nodes.
        """
        return _memoized(self._snapshot, "geometry",
                         self._revision("length"), self._cache_lock,
                         _GeometryIndex, self._graph, self._cache_lock)

    def node_index(self):
        """``(index_of, nodes)`` for array-based queries.

        ``index_of[node]`` is the row of ``node`` in any array returned
        by :meth:`dijkstra_array`; ``nodes[i]`` inverts the mapping.
        Stable for a given graph revision.
        """
        geometry = self._geometry()
        return geometry.index_of, geometry.node_list

    def invalidate_geometry(self):
        """Drop the cached spatial index (after in-place ``pos`` edits).

        Safe against in-flight readers: the snapshot holders are
        *replaced* (never mutated), so a query that already picked up
        the old snapshot finishes on a consistent — if momentarily
        stale — view, and the next query rebuilds fresh.
        """
        with self._cache_lock:
            self._snapshot = {}

    def edge_endpoints(self, u, v):
        """Coordinates of both endpoints as two ``(x, y)`` tuples."""
        return self.position(u), self.position(v)

    def project_point(self, point, u, v):
        """Project planar ``point`` onto segment ``(u, v)``.

        Returns ``(distance, fraction)`` — the perpendicular distance from
        the point to the segment and the position along it in ``[0, 1]``.
        Used by HMM map matching for emission probabilities.
        """
        (x1, y1), (x2, y2) = self.edge_endpoints(u, v)
        px, py = point
        dx, dy = x2 - x1, y2 - y1
        norm2 = dx * dx + dy * dy
        if norm2 == 0:
            return math.hypot(px - x1, py - y1), 0.0
        fraction = ((px - x1) * dx + (py - y1) * dy) / norm2
        fraction = min(max(fraction, 0.0), 1.0)
        cx, cy = x1 + fraction * dx, y1 + fraction * dy
        return math.hypot(px - cx, py - cy), fraction

    def point_on_edge(self, u, v, fraction):
        """The coordinates at ``fraction`` of the way from ``u`` to ``v``."""
        (x1, y1), (x2, y2) = self.edge_endpoints(u, v)
        fraction = min(max(fraction, 0.0), 1.0)
        return (x1 + fraction * (x2 - x1), y1 + fraction * (y2 - y1))

    def candidate_edges(self, point, radius):
        """Edges whose segment passes within ``radius`` of ``point``.

        Returns ``[(u, v, distance, fraction), ...]`` sorted by distance
        (ties in edge insertion order).  Served by the uniform-grid
        spatial index: only the edges of one row of its candidate table
        are projected, vectorized (a one-point, unlimited
        ``trace_candidates``).
        """
        geometry = self._geometry()
        edges, distances, fractions, _ = geometry.trace_candidates(
            point, radius, len(geometry.edge_list))
        return [
            (*geometry.edge_list[edge], distance, fraction)
            for edge, distance, fraction in zip(
                edges[0].tolist(), distances[0].tolist(),
                fractions[0].tolist())
        ]

    def nearest_node(self, point):
        """The node closest to planar ``point`` (grid-index backed).

        Raises :class:`ValueError` for a non-finite ``point``.
        """
        point = check_finite_points(point, "point")
        index = self._geometry().nearest_node_index(point)
        if index is None:
            return None
        return self._geometry().node_list[index]

    # -- paths ----------------------------------------------------------------

    def shortest_path(self, source, target, weight="length"):
        """Dijkstra shortest path as a node list."""
        with _typed_path_errors(self._graph, source, target):
            return nx.dijkstra_path(self._graph, source, target,
                                    weight=weight)

    def shortest_path_length(self, source, target, weight="length"):
        with _typed_path_errors(self._graph, source, target):
            return nx.dijkstra_path_length(self._graph, source, target,
                                           weight=weight)

    def k_shortest_paths(self, source, target, k, weight="length"):
        """The ``k`` shortest simple paths from ``source`` to ``target``.

        Yen's algorithm over the snapshot's integer adjacency, ported
        from networkx 3.6's ``shortest_simple_paths`` so that it returns
        the same paths in the same order, ties included.  ``weight``
        names an edge attribute; an edge without it weighs 1 and one
        whose value is ``None`` is skipped.  Fewer than ``k`` paths come
        back when fewer exist.  An unknown node raises
        :class:`KeyError`, no path :class:`ValueError`.

        Like :meth:`dijkstra_array`, it sees ``weight`` changes made
        through :meth:`set_edge_attribute`, not direct ``graph`` edits.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        _check_nodes(self._graph, source, target)
        geometry = self._geometry()
        edits = self._edits.get(weight, 0)
        index_of, nodes = geometry.index_of, geometry.node_list
        adjacency = (geometry.adjacency(weight, edits),
                     geometry.adjacency(weight, edits, reverse=True))
        paths = _yen(adjacency, index_of[source], index_of[target], k)
        if not paths:
            raise ValueError(f"No path between {source} and {target}.")
        return [[nodes[i] for i in path] for path in paths]

    def path_edges(self, path):
        """Convert a node path into its ``(u, v)`` edge list."""
        if len(path) < 2:
            raise ValueError("a path needs at least two nodes")
        edge_list = list(zip(path, path[1:]))
        for u, v in edge_list:
            if not self._graph.has_edge(u, v):
                raise ValueError(f"path uses missing edge ({u!r}, {v!r})")
        return edge_list

    def path_length(self, path, weight="length"):
        """Total weight along a node path."""
        return float(
            sum(self._graph.edges[u, v][weight] for u, v in self.path_edges(path))
        )

    def route_distance(self, path_a, path_b):
        """Dissimilarity of two node paths: 1 - Jaccard of their edge sets.

        Used to compare an imitated route to the expert route (E22) and a
        matched route to ground truth (E6).
        """
        edges_a = set(self.path_edges(path_a))
        edges_b = set(self.path_edges(path_b))
        union = edges_a | edges_b
        if not union:
            return 0.0
        return 1.0 - len(edges_a & edges_b) / len(union)

    def dijkstra_all(self, source, weight="length", *, cutoff=None):
        """Distances from ``source`` to every reachable node, as a dict.

        The finite entries of the :meth:`dijkstra_array` row, keyed by
        node.  With ``cutoff`` the search stops expanding past that
        radius: every node whose true distance is ``<= cutoff`` is
        returned with its exact distance, farther nodes are omitted.
        Bounded searches are what keeps map matching's transition
        computation cheap on large networks.
        """
        row = self.dijkstra_array(source, weight, cutoff=cutoff)
        reached = np.flatnonzero(np.isfinite(row))
        nodes = self._geometry().node_list
        return {nodes[i]: distance for i, distance in
                zip(reached.tolist(), row[reached].tolist())}

    def dijkstra_array(self, source, weight="length", *, cutoff=None):
        """Single-source distances as a dense float array over nodes.

        Row order follows :meth:`node_index`; unreachable nodes (or
        nodes beyond ``cutoff``) hold ``inf``, and an unknown
        ``source`` raises :class:`KeyError`.  Running over the
        snapshot's integer adjacency and returning an array makes this
        the fast distance source for the vectorized map matcher, which
        gathers whole candidate columns at once.
        """
        geometry = self._geometry()
        adjacency = geometry.adjacency(weight, self._edits.get(weight, 0))
        distances = [math.inf] * len(adjacency)
        source_index = geometry.index_of[source]
        distances[source_index] = 0.0
        heap = [(0.0, source_index)]
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, node = pop(heap)
            if d > distances[node]:  # stale entry (lazy deletion)
                continue
            for edge_weight, succ in adjacency[node]:
                cost = d + edge_weight
                if cutoff is not None and cost > cutoff:
                    continue
                if cost < distances[succ]:
                    distances[succ] = cost
                    push(heap, (cost, succ))
        return np.asarray(distances, dtype=float)
