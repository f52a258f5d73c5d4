"""Hidden-Markov-model map matching (Newson & Krumm [17]).

Map matching is the paper's prime example of *alignment-based*
multi-modal fusion: noisy GPS trajectories are aligned with the road
network, simultaneously removing measurement noise and recovering the
travelled route.

Model (exactly the classic formulation):

* **states** at each GPS sample are candidate road edges within
  ``candidate_radius`` of the point;
* **emission** probability of a candidate decays as a Gaussian in the
  perpendicular distance between the point and the edge
  (``sigma`` = GPS noise scale);
* **transition** probability between consecutive candidates decays
  exponentially in the *route/great-circle discrepancy*: a good match
  drives roughly as far along the network as the raw points moved
  (``beta`` = tolerance scale);
* decoding is exact Viterbi.

The hot path works on a whole trace at once.  Candidates come from the
network's candidate table: one row per grid cell, listing every edge
within the search reach, so a trace's candidate search is one row
lookup per point, one projection and one stable sort, returning padded
``(T, K)`` layers with a validity mask.  Emissions and the
``(T-1, K, K)`` transition tensor are then one numpy expression each
(padded slots score ``-inf``).  Viterbi loops over the ``T`` points
with three numpy operations a step: the previous scores are added into
the step's transition block in place, and its column maxima plus the
emissions go into one preallocated ``(T, K)`` forward array, so every
backpointer is recovered afterwards by one ``argmax`` over the blocks.
Network distances come from *bounded* Dijkstra searches (radius
``straight + beta_cutoff * beta`` — farther transitions score below
``-beta_cutoff`` log-probability and are treated as unreachable): one
row per distinct ``(exit node, radius)`` in the trace, fetched through
a bounded LRU cache shared across traces and
:meth:`HmmMapMatcher.match_many` batches, keyed on the network's
``length`` revision and gathered by fancy indexing.  Stitching a
matched path walks the runs of the decoded edge indices and searches
the network only between matched edges that do not already meet at a
node.
"""

from __future__ import annotations

import math

import numpy as np

from ..._lru import MeteredLRU
from ..._validation import check_positive
from ...datatypes import RoadNetwork, Trajectory

__all__ = ["HmmMapMatcher"]


class HmmMapMatcher:
    """Match GPS trajectories to road-network paths.

    **Thread-safety contract:** :meth:`match`, :meth:`match_many`,
    :meth:`matched_path`, :meth:`cache_info` and :meth:`clear_cache`
    are safe to call from many threads on one shared matcher.  The
    distance LRU is lock-guarded, and cached rows are masked down to
    each request's cutoff, so results are byte-identical to a
    single-threaded matcher regardless of interleaving.

    Parameters
    ----------
    network:
        The road network.
    sigma:
        GPS noise standard deviation (emission scale).
    beta:
        Transition tolerance: expected discrepancy between network
        distance and straight-line distance.
    candidate_radius:
        Max distance from a point to a candidate edge.
    max_candidates:
        Keep only the closest candidates per point (for speed).
    beta_cutoff:
        Dijkstra search radius in units of ``beta`` beyond the
        straight-line step distance.  Transitions whose detour exceeds
        this many betas carry log-probability below ``-beta_cutoff`` and
        are treated as unreachable.  ``None`` disables the bound
        (exhaustive single-source searches, the pre-index behavior).
    distance_cache_size:
        Max number of per-node Dijkstra results kept in the LRU cache.
    """

    def __init__(self, network, *, sigma=0.3, beta=1.0,
                 candidate_radius=None, max_candidates=8,
                 beta_cutoff=30.0, distance_cache_size=4096):
        if not isinstance(network, RoadNetwork):
            raise TypeError("network must be a RoadNetwork")
        self.network = network
        self.sigma = float(check_positive(sigma, "sigma"))
        self.beta = float(check_positive(beta, "beta"))
        self.candidate_radius = (
            float(candidate_radius) if candidate_radius is not None
            else 5.0 * self.sigma
        )
        self.max_candidates = int(check_positive(max_candidates,
                                                 "max_candidates"))
        self.beta_cutoff = (
            float(check_positive(beta_cutoff, "beta_cutoff"))
            if beta_cutoff is not None else None
        )
        self.distance_cache_size = int(check_positive(
            distance_cache_size, "distance_cache_size"))
        self._distances = MeteredLRU(
            self.distance_cache_size, "fusion.distance_cache_lookups_total",
            "HmmMapMatcher distance-LRU lookups by outcome")

    # -- internals -----------------------------------------------------------

    def _distances_from(self, node, cutoff=None):
        """Bounded single-source distance *array*, memoized per node (LRU).

        Returns the :meth:`RoadNetwork.dijkstra_array` row for ``node``
        (``inf`` beyond the cutoff / unreachable).  A cached result
        computed with a larger (or unbounded) cutoff serves any smaller
        request *masked down to that cutoff*, so the returned row is
        byte-identical to a fresh bounded search no matter what the
        cache happens to hold; a larger request counts as a miss,
        recomputes and replaces the entry.  The Dijkstra runs outside
        the LRU's lock.
        """
        entry = self._distances.get(node, lambda entry: (
            entry[0] is None or (cutoff is not None and entry[0] >= cutoff)))
        if entry is not None:
            cached_cutoff, distances = entry
            if cutoff is not None and (
                    cached_cutoff is None or cached_cutoff > cutoff):
                return np.where(distances <= cutoff, distances, np.inf)
            return distances
        distances = self.network.dijkstra_array(node, cutoff=cutoff)
        self._distances.put(node, (cutoff, distances))
        return distances

    def _sync_revision(self):
        """Drop cached distance rows if a ``length`` edit made them stale.

        The LRU rows are keyed on the network's ``length`` revision (its
        shape and how often lengths were set): checked once per trace,
        since mutation is quiesced against queries.
        """
        self._distances.sync(self.network._revision("length"))

    def _cutoff_for(self, straight):
        """Dijkstra radii for steps of straight-line lengths ``straight``.

        Quantized *up* to 1/8 of the ``beta_cutoff * beta`` margin so
        consecutive steps with slightly different straight-line gaps ask
        for the same radius and share one cache entry per node, instead
        of forcing an upgrade-recompute for every fractionally larger
        request.  ``None`` (unbounded) without a ``beta_cutoff``.
        """
        if self.beta_cutoff is None:
            return None
        quantum = self.beta_cutoff * self.beta / 8.0
        exact = np.asarray(straight) + self.beta_cutoff * self.beta
        return quantum * np.ceil(exact / quantum)

    def cache_info(self):
        """Distance-cache observability: hits, misses, size, maxsize."""
        return {**self._distances.info(),
                "maxsize": self.distance_cache_size}

    def clear_cache(self):
        self._distances.clear()

    def _transitions(self, geometry, points, edges, fractions, valid):
        """Log transition probabilities of every step, ``(T-1, K, K)``.

        Entry ``(s, i, j)`` is ``-|route - straight| / beta`` for moving
        from candidate ``i`` of point ``s`` to candidate ``j`` of point
        ``s + 1``, ``-inf`` for pairs not connected within the Dijkstra
        cutoff.  Padded entries are finite or ``-inf`` but never win:
        padded slots carry ``-inf`` emissions.  Network distances come
        from one cached row per distinct ``(exit node, cutoff)`` among
        the real slots, gathered by fancy indexing.  ``points`` is the
        trace's ``(T, 2)`` coordinate column.
        """
        steps = points[1:] - points[:-1]
        straight = np.array(list(map(math.hypot, steps[:, 0].tolist(),
                                     steps[:, 1].tolist())))
        cutoffs = self._cutoff_for(straight)
        if cutoffs is None or cutoffs.min() == cutoffs.max():
            # One radius for the whole trace (the usual case): no sort.
            distinct = [None if cutoffs is None else float(cutoffs[0])]
            cutoff_id = np.zeros(len(straight), np.intp)
        else:
            distinct, cutoff_id = np.unique(cutoffs, return_inverse=True)
            distinct = distinct.tolist()
        exits = geometry.edge_v[edges[:-1]]
        entries = geometry.edge_u[edges[1:]]
        keys = np.where(valid[:-1],
                        exits * len(distinct) + cutoff_id[:, None], -1)
        pairs, first, row_of = np.unique(keys.ravel(), return_index=True,
                                         return_inverse=True)
        # The entry nodes in use, in node order, marked instead of sorted.
        used = np.zeros(len(geometry.node_list), dtype=bool)
        used[entries] = True
        columns = np.flatnonzero(used)
        column_of = np.cumsum(used) - 1
        rows = np.full((len(pairs), len(columns)), np.inf)
        # Fetch in first-use order: LRU recency then follows the trace,
        # so a trace that continues where this one ends finds its rows.
        pairs = pairs.tolist()
        for row in np.argsort(first, kind="stable").tolist():
            key = pairs[row]
            if key >= 0:
                node, cutoff = divmod(key, len(distinct))
                rows[row] = self._distances_from(
                    geometry.node_list[node], distinct[cutoff])[columns]
        through = rows[row_of.reshape(exits.shape)[:, :, None],
                       column_of[entries][:, None, :]]

        # ``through`` is a fresh gather: build the scores in it in place.
        lengths = geometry.edge_length[edges]
        route = np.add(((1.0 - fractions[:-1]) * lengths[:-1])[:, :, None],
                       through, out=through)
        route += (fractions[1:] * lengths[1:])[:, None, :]
        before, after = fractions[:-1, :, None], fractions[1:, None, :]
        same_edge = (edges[:-1, :, None] == edges[1:, None, :]) \
            & (after >= before)
        np.copyto(route, (after - before) * lengths[:-1, :, None],
                  where=same_edge)
        route -= straight[:, None, None]
        # |x| / -beta has the bits of -|x| / beta.
        return np.divide(np.abs(route, out=route), -self.beta, out=route)

    # -- public API -------------------------------------------------------------

    def _decode(self, trajectory):
        """Viterbi-decode ``trajectory`` on the network's snapshot.

        Returns ``(geometry, edges, distances, fractions)``: the
        snapshot and, per GPS point, the chosen candidate's edge index
        (into ``geometry.edge_list``), distance and fraction as arrays.
        Raises as :meth:`match` documents.
        """
        if not isinstance(trajectory, Trajectory):
            raise TypeError("trajectory must be a Trajectory")
        geometry = self.network._geometry()
        points = trajectory._xy
        edges, distances, fractions, counts = geometry.trace_candidates(
            points, self.candidate_radius, self.max_candidates)
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            raise ValueError(
                f"no candidate edge within {self.candidate_radius} of "
                f"point {empty[0]}; the trajectory is off the map"
            )
        valid = np.arange(edges.shape[1]) < counts[:, None]
        # -inf on padded slots keeps them out of every Viterbi max.
        emissions = np.where(valid, -0.5 * (distances / self.sigma) ** 2,
                             -np.inf)
        self._sync_revision()
        transitions = self._transitions(geometry, points, edges,
                                        fractions, valid)

        # Viterbi on one (T, K) forward array.  Each step adds the
        # previous scores into its own transition block in place, so
        # the block then holds every score the step's max chose from.
        # (The K-wide max is left to allocate: on arrays this small a
        # reduce with ``out=`` costs more than the allocation.)
        forward = np.empty(emissions.shape)
        forward[0] = emissions[0]
        add, best_of = np.add, np.maximum.reduce
        for previous, moves, current, emission in zip(
                forward[:, :, None], transitions, forward[1:],
                emissions[1:]):
            add(best_of(add(moves, previous, moves), 0), emission, current)
        # A row with no finite score stays so: if the last row has one,
        # every row has; otherwise report the first dead one.
        if best_of(forward[-1]) == -np.inf:
            dead = np.flatnonzero(forward.max(axis=1) == -np.inf)
            raise ValueError(
                f"no connected matching through point {dead[0]}; "
                "the network may be disconnected along the trace"
            )
        # Every backpointer at once: the argmax each step's max took,
        # read back to front from one flat list.
        width = transitions.shape[2]
        pointers = transitions.argmax(axis=1).ravel().tolist()
        best = int(np.argmax(forward[-1]))
        chosen = [best]
        for offset in range(len(pointers) - width, -1, -width):
            best = pointers[offset + best]
            chosen.append(best)
        chosen.reverse()
        self._distances.publish()
        # Flat indices into the row-major (T, K) arrays: one ``take`` each.
        chosen = np.arange(0, edges.size, width) + chosen
        return (geometry, edges.take(chosen), distances.take(chosen),
                fractions.take(chosen))

    def match(self, trajectory):
        """Viterbi-decode the most likely candidate sequence.

        Returns
        -------
        list
            One ``(u, v, distance, fraction)`` candidate per GPS point.

        Raises
        ------
        ValueError
            If some point is not finite, or has no candidate edge within
            radius (increase ``candidate_radius``), or no candidate
            sequence is connected.
        """
        geometry, edges, distances, fractions = self._decode(trajectory)
        return [
            (*geometry.edge_list[edge], distance, fraction)
            for edge, distance, fraction in zip(
                edges.tolist(), distances.tolist(), fractions.tolist())
        ]

    def match_many(self, trajectories):
        """Batch-match trajectories, sharing the distance cache.

        Fleet-scale serving entry point: consecutive trajectories over
        the same region reuse each other's bounded Dijkstra results, so
        throughput grows superlinearly versus matching each trace with a
        cold matcher.  Returns one :meth:`match` result per trajectory.
        """
        return [self.match(trajectory) for trajectory in trajectories]

    def matched_path(self, trajectory):
        """The full node path the vehicle most likely travelled.

        Consecutive matched edges are stitched with network shortest
        paths, and repeated nodes from staying on one edge are collapsed.
        """
        geometry, edges, _, fractions = self._decode(trajectory)
        # Points that stay on one edge add nothing: walk the runs.
        starts = np.empty(len(edges), dtype=bool)
        starts[0] = True
        np.not_equal(edges[1:], edges[:-1], out=starts[1:])
        matched = [geometry.edge_list[edge]
                   for edge in edges[starts].tolist()]
        path = []

        def extend(nodes):
            for node in nodes:
                if not path or path[-1] != node:
                    path.append(node)

        # A first match sitting at the far end of its edge means the
        # vehicle effectively started at node v; adding u would prepend
        # a phantom segment.
        u, v = matched[0]
        extend([v] if fractions[0] >= 0.99 else [u, v])
        for (_, previous), (u, v) in zip(matched, matched[1:]):
            # Consecutive edges mostly share a node: no search then.
            if previous != u:
                extend(self.network.shortest_path(previous, u))
            extend([u, v])

        # Collapse immediate backtracks (a, b, a -> a), an artifact of
        # matching to the reverse twin of a bidirectional edge.
        changed = True
        while changed and len(path) >= 3:
            changed = False
            for index in range(len(path) - 2):
                if path[index] == path[index + 2]:
                    del path[index + 1:index + 3]
                    changed = True
                    break

        if len(path) < 2:
            # Entire trace matched to a single edge.
            path = list(matched[0])
        return path
