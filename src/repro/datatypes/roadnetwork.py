"""Road networks: the spatial substrate for the paper's running examples.

The tutorial's flagship decision task is stochastic route planning over
an uncertain road network (the autonomous-taxi-to-airport example of
§I).  :class:`RoadNetwork` provides the directed, spatially-embedded
graph all of those components share: nodes with planar coordinates,
edges with lengths, geometric queries for map matching, and classic
path utilities.

The network holds its graph as plain lists and arrays, in networkx's
node and edge order, and its searches are ports of networkx 3.6's, so
they return networkx's paths and distances, ties included, without
loading it: one unidirectional Dijkstra serves paths and distance
rows, and a bidirectional one serves Yen's k shortest paths.  The
nearest node is one vectorised O(V) scan.  networkx is imported only
to build the :attr:`RoadNetwork.graph` export.

The paper's systems run on real networks (OpenStreetMap extracts); the
generators here (:meth:`RoadNetwork.grid`,
:meth:`RoadNetwork.random_geometric`) synthesize networks with the same
structural features — bounded degree, planar embedding, alternative
routes between most origin-destination pairs — with known ground truth.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading

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


def _check_nodes(index, *nodes):
    """Raise :class:`KeyError` for the first of ``nodes`` not in
    ``index``."""
    for node in nodes:
        if node not in index:
            raise KeyError(f"node {node!r} is not in the network")


def _dijkstra(succ, heads, weights, source, target=None, cutoff=None):
    """networkx 3.6's ``_dijkstra_multisource`` from ``source`` over
    integer rows: the network's one unidirectional search.

    ``succ[i]`` lists node ``i``'s out-edges in successor order,
    ``heads[e]`` is edge ``e``'s head and ``weights[e]`` its cost; an
    edge whose cost is ``None`` is skipped, and so is a relaxation
    longer than ``cutoff`` (a NaN ``cutoff`` raises
    :class:`ValueError`).  Costs are added as given, and the heap
    orders ``(distance, push count)`` exactly as networkx's does, so
    ties resolve as in networkx.  With ``target``, returns
    ``(distance, path)`` with ``path`` an index list, or ``None`` when
    ``target`` is unreachable; without, the settled list: each node's
    distance, ``None`` where unreached.
    """
    if cutoff is None:
        cutoff = math.inf
    elif math.isnan(cutoff):
        raise ValueError("cutoff must not be NaN")
    settled = [None] * len(succ)
    seen = [None] * len(succ)
    seen[source] = 0
    parent = [None] * len(succ)
    fringe = [(0, 0, source)]
    pushes = 1
    push, pop = heapq.heappush, heapq.heappop
    while fringe:
        dist, _, v = pop(fringe)
        if settled[v] is not None:
            continue
        settled[v] = dist
        if v == target:
            break
        for edge in succ[v]:
            cost = weights[edge]
            if cost is None:
                continue
            u = heads[edge]
            length = dist + cost
            if length > cutoff:
                continue
            if settled[u] is not None:
                if length < settled[u]:
                    raise ValueError("Contradictory paths found:",
                                     "negative weights?")
            elif seen[u] is None or length < seen[u]:
                seen[u] = length
                push(fringe, (length, pushes, u))
                pushes += 1
                parent[u] = v
    if target is None:
        return settled
    if settled[target] is None:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return settled[target], path


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


def _strongly_connected_components(succ):
    """networkx 3.6's ``strongly_connected_components`` (Tarjan with
    Nuutila's changes, non-recursive) over integer successor rows.

    Nodes are ``0..n-1`` and are visited, and each component set is
    built, in networkx's order, so the sets come out equal and iterate
    alike.
    """
    preorder, lowlink, found, stack = {}, {}, set(), []
    count = 0
    neighbours = [iter(row) for row in succ]
    for source in range(len(succ)):
        if source in found:
            continue
        queue = [source]
        while queue:
            v = queue[-1]
            if v not in preorder:
                count += 1
                preorder[v] = count
            done = True
            for w in neighbours[v]:
                if w not in preorder:
                    queue.append(w)
                    done = False
                    break
            if not done:
                continue
            lowlink[v] = preorder[v]
            for w in succ[v]:
                if w not in found:
                    lowlink[v] = min(lowlink[v], lowlink[w]
                                     if preorder[w] > preorder[v]
                                     else preorder[w])
            queue.pop()
            if lowlink[v] == preorder[v]:
                component = {v}
                while stack and preorder[stack[-1]] > preorder[v]:
                    component.add(stack.pop())
                found.update(component)
                yield component
            else:
                stack.append(v)


def _insertion_order(succ, pred, n_edges):
    """An order of edge ids whose insertion into a networkx graph
    rebuilds both the successor rows ``succ`` and the predecessor rows
    ``pred``: Kahn's algorithm over the two row orders."""
    after = [[] for _ in range(n_edges)]
    waiting = [0] * n_edges
    for rows in (succ, pred):
        for row in rows:
            for first, second in zip(row, row[1:]):
                after[first].append(second)
                waiting[second] += 1
    order = [edge for edge in range(n_edges) if not waiting[edge]]
    for edge in order:  # grows while it is walked
        for second in after[edge]:
            waiting[second] -= 1
            if not waiting[second]:
                order.append(second)
    return order


class _GeometryIndex:
    """The network's lazily built spatial snapshot: coordinates and grid.

    Built from the network's own arrays once per ``length`` revision
    and shared by every geometric query.  It shares the network's node
    order (``node_list``) and edge order (``edge_list``).  The grid
    buckets edges by their bounding boxes, so ``candidate_edges``
    inspects only nearby cells instead of scanning the whole graph;
    ``nearest_node`` scans the node positions, O(V).
    """

    def __init__(self, network, lock):
        self.node_list = network._nodes
        self.edge_list = network._edges
        self.node_xy = network._xy
        # Per-edge endpoint node indices (rows of ``node_list``) and
        # lengths, so the map matcher never goes back to the network
        # per candidate.
        self.edge_u = np.asarray(network._tails, dtype=np.intp)
        self.edge_v = np.asarray(network._heads, dtype=np.intp)
        self.edge_length = np.asarray(
            [data.get("length") for data in network._data], dtype=float)
        self.a = self.node_xy[self.edge_u]
        self.b = self.node_xy[self.edge_v]
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

    def nearest_node_index(self, point):
        """Index (into ``node_list``) of the node closest to ``point``,
        ``None`` for an empty network.

        One vectorised O(V) scan: ``argmin`` takes the first minimum,
        so ties break toward the lowest node index, as the brute-force
        scan in node order does.
        """
        if not len(self.node_list):
            return None
        px, py = float(point[0]), float(point[1])
        return int(np.argmin(np.hypot(px - self.node_xy[:, 0],
                                      py - self.node_xy[:, 1])))


class RoadNetwork:
    """A directed, spatially embedded road graph.

    Nodes are arbitrary hashables with a ``pos=(x, y)`` attribute; edges
    carry at least a positive ``length``.  Additional per-edge data (speed
    distributions, observed weights) is attached by the governance layer
    through :meth:`set_edge_attribute`.

    The network owns its graph as lists and arrays: the node order, an
    ``(n, 2)`` position array, edge endpoints in networkx's edge order
    (by source in node order, then by insertion), one attribute dict
    per edge, and successor and predecessor rows of edge ids.  Nodes
    and edges are fixed at construction; :meth:`set_edge_attribute` is
    the one mutator, and it stamps every snapshot that reads the
    attribute it sets.

    Paths (``shortest_path``, ``shortest_path_length``) and distance
    rows (``dijkstra_array``, ``dijkstra_all``) run the one
    unidirectional Dijkstra; ``k_shortest_paths`` runs Yen's over the
    bidirectional one.

    **Thread-safety contract:** every *query* method (geometry lookups,
    ``candidate_edges``, ``nearest_node``, Dijkstra variants, path
    utilities) is safe to call from many threads concurrently — the
    lazily built snapshots are constructed under a lock and installed
    atomically, so concurrent first callers never observe a torn
    snapshot and never duplicate a build.  ``set_edge_attribute`` is
    not synchronized against concurrent queries; quiesce queries before
    mutating.
    """

    def __init__(self, graph=None):
        """Read a networkx-style directed ``graph`` (empty by default)
        through ``nodes(data=True)``, ``edges(data=True)`` and
        ``pred``; its attribute dicts are copied."""
        nodes, positions, edges, data = [], [], [], []
        if graph is not None:
            for node, attributes in graph.nodes(data=True):
                if "pos" not in attributes:
                    raise ValueError(
                        f"node {node!r} is missing a 'pos' attribute")
                nodes.append(node)
                positions.append(attributes["pos"])
            for u, v, attributes in graph.edges(data=True):
                if attributes.get("length", 0) <= 0:
                    raise ValueError(
                        f"edge ({u!r}, {v!r}) needs a positive length")
                edges.append((u, v))
                data.append(dict(attributes))
        self._assemble(nodes, positions, edges, data)
        if graph is not None:
            self._pred = [[self._edge_index[u, v] for u in graph.pred[v]]
                          for v in nodes]

    def _assemble(self, nodes, positions, edges, data, pred=None):
        """Install the owned state and derive its lookups.

        ``edges`` are ``(u, v)`` pairs in edge order (grouped by source
        in node order), ``data`` their attribute dicts and ``pred[i]``
        node ``i``'s in-edges in predecessor order; by default in edge
        order, as when a graph's edges were added in edge order.
        """
        self._nodes, self._edges, self._data = nodes, edges, data
        self._xy = np.asarray(positions, dtype=float).reshape(len(nodes), 2)
        self._index = {node: i for i, node in enumerate(nodes)}
        self._tails = [self._index[u] for u, _ in edges]
        self._heads = [self._index[v] for _, v in edges]
        self._edge_index = {edge: e for e, edge in enumerate(edges)}
        self._succ = [[] for _ in nodes]
        for edge, tail in enumerate(self._tails):
            self._succ[tail].append(edge)
        if pred is None:
            pred = [[] for _ in nodes]
            for edge, head in enumerate(self._heads):
                pred[head].append(edge)
        self._pred = pred
        self._cache_lock = threading.RLock()
        # Per-attribute count of set_edge_attribute calls: the stamp of
        # every snapshot that reads that attribute.
        self._edits = {}
        # Lazy snapshots, installed by _memoized: the geometry index,
        # per-weight cost lists and adjacency, and the graph export.
        self._snapshot = {}

    def __getstate__(self):
        """Pickle the owned state only; snapshots rebuild lazily on load.

        Dropping the snapshots also keeps content fingerprints (and
        process-executor shipping) independent of how warm this
        network's lazy indexes happen to be.
        """
        return self._nodes, self._xy, self._edges, self._data, self._pred

    def __setstate__(self, state):
        self._assemble(*state)

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_edges(cls, nodes, positions, edges, data):
        """A network of ``edges`` in edge order, in-edges included."""
        network = cls.__new__(cls)
        network._assemble(nodes, positions, edges, data)
        return network

    @classmethod
    def grid(cls, rows, cols, spacing=1.0, *, bidirectional=True):
        """A ``rows x cols`` Manhattan grid with edge length ``spacing``.

        Nodes are ``(r, c)`` tuples positioned at ``(c*spacing, r*spacing)``.
        Each node's out-edges and in-edges are ordered by the other
        end's node order, as networkx orders a graph built by adding the
        nodes row by row and then, node by node, the edges to the right
        and down (and back, when two-way).
        """
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
        nodes = [(r, c) for r in range(rows) for c in range(cols)]
        steps = ((-1, 0), (0, -1), (0, 1), (1, 0)) if bidirectional \
            else ((0, 1), (1, 0))
        edges = [((r, c), (r + dr, c + dc)) for r, c in nodes
                 for dr, dc in steps
                 if 0 <= r + dr < rows and 0 <= c + dc < cols]
        return cls._from_edges(
            nodes, [(c * spacing, r * spacing) for r, c in nodes], edges,
            [{"length": spacing} for _ in edges])

    @classmethod
    def random_geometric(cls, n_nodes, radius, rng=None, *, size=10.0):
        """Random geometric graph on ``[0, size]^2`` with connect radius.

        Keeps only the largest strongly connected component so every pair
        of retained nodes is mutually reachable.  Nodes, edges and their
        order are those of networkx's
        ``graph.subgraph(largest).copy()``.
        """
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        rng = ensure_rng(rng)
        coords = rng.uniform(0.0, size, size=(n_nodes, 2))
        # Node i's neighbours in ascending order: the successor order
        # of adding (i, j) and (j, i) for every close pair i < j.
        succ = [[] for _ in range(n_nodes)]
        lengths = {}
        for i in range(n_nodes):
            # sqrt(dot(d, d)) per pair: np.linalg.norm's formula, bits
            # included, one row of O(n) memory at a time.
            d = coords[i + 1:] - coords[i]
            distances = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
            close = np.flatnonzero((distances <= radius) & (distances > 0))
            for j, distance in zip((close + i + 1).tolist(),
                                   distances[close].tolist()):
                lengths[i, j] = lengths[j, i] = distance
                succ[i].append(j)
                succ[j].append(i)
        largest = max(_strongly_connected_components(succ), key=len)
        if len(largest) < 2:
            raise ValueError("generated graph is too sparse; increase radius")
        # networkx's subgraph re-adds the component to a new set, and
        # its copy walks that set, not the node order, when the
        # component is under half the graph.
        kept = set()
        for node in largest:
            kept.add(node)
        if 2 * len(kept) < n_nodes:
            nodes = list(kept)
        else:
            nodes = [node for node in range(n_nodes) if node in kept]
        # The copy adds edges in edge order, so in-edges follow it too.
        edges = [(u, v) for u in nodes for v in succ[u] if v in kept]
        return cls._from_edges(
            nodes, [(float(x), float(y)) for x, y in coords[nodes]], edges,
            [{"length": lengths[edge]} for edge in edges])

    # -- protocol -----------------------------------------------------------

    def __repr__(self):
        return f"RoadNetwork(nodes={self.n_nodes}, edges={self.n_edges})"

    @property
    def graph(self):
        """A frozen :class:`networkx.DiGraph` export of the network.

        Built on first use (the only place networkx is imported) and
        again after :meth:`set_edge_attribute`.  It has the network's
        nodes, edges, attributes and their order, including each node's
        predecessor order; its attribute dicts are copies, and adding
        or removing nodes or edges raises.
        """
        return _memoized(self._snapshot, "graph", sum(self._edits.values()),
                         self._cache_lock, self._export)

    def _export(self):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(
            (node, {"pos": (x, y)})
            for node, (x, y) in zip(self._nodes, self._xy.tolist()))
        graph.add_edges_from(
            (*self._edges[edge], self._data[edge]) for edge in
            _insertion_order(self._succ, self._pred, len(self._edges)))
        return nx.freeze(graph)

    @property
    def n_nodes(self):
        return len(self._nodes)

    @property
    def n_edges(self):
        return len(self._edges)

    def nodes(self):
        return list(self._nodes)

    def edges(self):
        """All edges as ``(u, v)`` tuples."""
        return list(self._edges)

    def position(self, node):
        """The ``(x, y)`` coordinates of ``node``."""
        return tuple(self._xy[self._index[node]].tolist())

    def _edge_id(self, u, v):
        try:
            return self._edge_index[u, v]
        except KeyError:
            raise KeyError(f"no edge ({u!r}, {v!r})") from None

    def edge_length(self, u, v):
        return float(self._data[self._edge_id(u, v)]["length"])

    def has_edge(self, u, v):
        return (u, v) in self._edge_index

    def successors(self, node):
        _check_nodes(self._index, node)
        return [successor for successor, _ in self._out_edges(node)]

    def set_edge_attribute(self, u, v, key, value):
        """Attach governance data (weights, distributions) to an edge.

        Snapshots that read ``key`` (costs and adjacency weighted by it,
        the geometry index for ``"length"``, the :attr:`graph` export)
        rebuild on next use.
        """
        self._data[self._edge_id(u, v)][key] = value
        with self._cache_lock:
            self._edits[key] = self._edits.get(key, 0) + 1

    def edge_attribute(self, u, v, key, default=None):
        return self._data[self._edge_id(u, v)].get(key, default)

    def _out_edges(self, node):
        """``[(successor, attribute dict)]`` of ``node``'s out-edges in
        successor order; the dicts are the network's own, to be read
        only.  An unknown node raises :class:`KeyError`."""
        return [(self._edges[edge][1], self._data[edge])
                for edge in self._succ[self._index[node]]]

    # -- snapshots -----------------------------------------------------------

    def _revision(self, attribute):
        """How many times :meth:`set_edge_attribute` set edge
        ``attribute``: the stamp of every snapshot that reads it."""
        return self._edits.get(attribute, 0)

    def _geometry(self):
        """The network's spatial snapshot (:class:`_GeometryIndex`),
        lazily built and rebuilt after a ``"length"`` edit."""
        return _memoized(self._snapshot, "geometry", self._revision("length"),
                         self._cache_lock, _GeometryIndex, self,
                         self._cache_lock)

    def _costs(self, weight):
        """Per-edge ``weight`` values in edge order, read as networkx
        reads them: ``1`` where the attribute is missing, ``None``
        (skip the edge) where it is ``None``."""
        return _memoized(self._snapshot, ("costs", weight),
                         self._revision(weight), self._cache_lock,
                         lambda: [data.get(weight, 1) for data in self._data])

    def _adjacency(self, weight, *, reverse=False):
        """Integer adjacency by ``weight``, for Yen's search: row ``i``
        lists ``(float cost, successor index)`` in node ``i``'s
        successor order, leaving out ``None`` costs; with ``reverse``,
        ``(cost, predecessor index)`` in its predecessor order.  One
        slot per (weight, direction), rebuilt after a re-weighting."""
        return _memoized(self._snapshot, ("adjacency", weight, reverse),
                         self._revision(weight), self._cache_lock,
                         self._build_adjacency, weight, reverse)

    def _build_adjacency(self, weight, reverse):
        costs = self._costs(weight)
        ends, rows = (self._tails, self._pred) if reverse else \
            (self._heads, self._succ)
        return [[(float(costs[edge]), ends[edge]) for edge in row
                 if costs[edge] is not None] for row in rows]

    def node_index(self):
        """``(index_of, nodes)`` for array-based queries.

        ``index_of[node]`` is the row of ``node`` in any array returned
        by :meth:`dijkstra_array`; ``nodes[i]`` inverts the mapping.
        Fixed for the network's lifetime.
        """
        return self._index, self._nodes

    # -- geometry ------------------------------------------------------------

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
        """The node closest to planar ``point`` (an O(V) scan; ties go
        to the first node in node order).

        Raises :class:`ValueError` for a non-finite ``point``.
        """
        point = check_finite_points(point, "point")
        index = self._geometry().nearest_node_index(point)
        if index is None:
            return None
        return self._nodes[index]


    # -- paths ----------------------------------------------------------------

    def _dijkstra_path(self, source, target, costs):
        """``(length, path)`` of networkx's ``dijkstra_path`` by per-edge
        ``costs`` (edge order; ``None`` skips an edge), or ``None`` when
        ``target`` is unreachable.  An unknown node raises
        :class:`KeyError`."""
        _check_nodes(self._index, source, target)
        if source == target:
            return 0, [source]
        found = _dijkstra(self._succ, self._heads, costs,
                          self._index[source], self._index[target])
        if found is None:
            return None
        return found[0], [self._nodes[i] for i in found[1]]

    def _shortest(self, source, target, costs):
        """The node path of :meth:`_dijkstra_path`; no path raises
        :class:`ValueError` with networkx's message."""
        found = self._dijkstra_path(source, target, costs)
        if found is None:
            raise ValueError(f"No path to {target}.")
        return found[1]

    def shortest_path(self, source, target, weight="length"):
        """Dijkstra shortest path as a node list.

        A port of networkx 3.6's ``dijkstra_path``, so ties resolve as
        in networkx.  An edge without ``weight`` weighs 1 and one whose
        value is ``None`` is skipped.  An unknown node raises
        :class:`KeyError`, no path :class:`ValueError`.
        """
        return self._shortest(source, target, self._costs(weight))

    def shortest_path_length(self, source, target, weight="length"):
        """The length of :meth:`shortest_path`, summed as networkx's
        ``dijkstra_path_length`` sums it."""
        found = self._dijkstra_path(source, target, self._costs(weight))
        if found is None:
            raise ValueError(f"Node {target} not reachable from {source}")
        return found[0]

    def k_shortest_paths(self, source, target, k, weight="length"):
        """The ``k`` shortest simple paths from ``source`` to ``target``.

        Yen's algorithm over the network's integer adjacency, ported
        from networkx 3.6's ``shortest_simple_paths`` so that it returns
        the same paths in the same order, ties included.  ``weight``
        names an edge attribute; an edge without it weighs 1 and one
        whose value is ``None`` is skipped.  Fewer than ``k`` paths come
        back when fewer exist.  An unknown node raises
        :class:`KeyError`, no path :class:`ValueError`.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        _check_nodes(self._index, source, target)
        adjacency = (self._adjacency(weight),
                     self._adjacency(weight, reverse=True))
        paths = _yen(adjacency, self._index[source], self._index[target], k)
        if not paths:
            raise ValueError(f"No path between {source} and {target}.")
        return [[self._nodes[i] for i in path] for path in paths]

    def path_edges(self, path):
        """Convert a node path into its ``(u, v)`` edge list."""
        if len(path) < 2:
            raise ValueError("a path needs at least two nodes")
        edge_list = list(zip(path, path[1:]))
        for u, v in edge_list:
            if (u, v) not in self._edge_index:
                raise ValueError(f"path uses missing edge ({u!r}, {v!r})")
        return edge_list

    def path_length(self, path, weight="length"):
        """Total weight along a node path."""
        return float(sum(self._data[self._edge_index[edge]][weight]
                         for edge in self.path_edges(path)))

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
        nodes = self._nodes
        return {nodes[i]: distance for i, distance in
                zip(reached.tolist(), row[reached].tolist())}

    def dijkstra_array(self, source, weight="length", *, cutoff=None):
        """Single-source distances as a dense float array over nodes.

        Row order follows :meth:`node_index`; unreachable nodes (or
        nodes beyond ``cutoff``) hold ``inf``, an unknown ``source``
        raises :class:`KeyError` and a NaN ``cutoff``
        :class:`ValueError`.  The row is the settled list of the
        shortest-path search, so its distances are networkx's
        ``single_source_dijkstra_path_length``, bit for bit.  Returning
        an array makes this the fast distance source for the
        vectorized map matcher, which gathers whole candidate columns
        at once.
        """
        settled = _dijkstra(self._succ, self._heads, self._costs(weight),
                            self._index[source], cutoff=cutoff)
        return np.array([math.inf if d is None else d for d in settled],
                        dtype=float)
