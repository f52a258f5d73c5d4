"""Multi-objective decision making: Pareto skylines and scalarization.

Paper §II-D: "Multi-objective decision-making can be categorized into
two classes: the first employs Pareto optimality to identify a set of
non-dominated options [15]; the second consolidates multiple objectives
into a single unified objective via a preference function [54]."

* :func:`pareto_front` — the non-dominated subset of arbitrary cost
  vectors;
* :func:`stochastic_pareto_front` — the same idea for options whose
  per-objective costs are *distributions*: FSD across every objective
  on shared union-support grids, optionally over a W1-reduced option
  ensemble;
* :class:`SkylineRouter` — route skylines [15]: a label-correcting
  search over a road network with *vector* edge costs, where a node
  keeps only Pareto-optimal partial labels; the result is every
  non-dominated origin-destination route;
* :func:`scalarize` — the second class: a preference-weighted single
  objective.
"""

from __future__ import annotations

import math
from collections import deque
from operator import add

import numpy as np

from .._validation import check_positive, check_probability_vector
from ..datatypes import RoadNetwork
from ..governance.uncertainty import Histogram
from .stochastic import _dominated, _support_union

__all__ = [
    "pareto_front",
    "dominates",
    "SkylineRouter",
    "scalarize",
    "stochastic_pareto_front",
]


def dominates(first, second, *, tol=1e-12):
    """True when cost vector ``first`` Pareto-dominates ``second``.

    ``first`` is no worse in every objective and strictly better in at
    least one (all objectives are costs: lower is better).
    """
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    if first.shape != second.shape:
        raise ValueError("cost vectors must have the same length")
    return bool(np.all(first <= second + tol)
                and np.any(first < second - tol))


def pareto_front(costs):
    """Indices of the non-dominated rows of a cost matrix.

    O(n² k); fine for the decision-sized candidate sets the experiments
    use.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValueError("costs must be 2-D (options x objectives)")
    survivors = []
    for index in range(len(costs)):
        dominated = False
        for other in range(len(costs)):
            if other != index and dominates(costs[other], costs[index]):
                dominated = True
                break
        if not dominated:
            survivors.append(index)
    return survivors


def stochastic_pareto_front(options, *, tol=1e-9, reduce_to=None):
    """Indices of stochastically non-dominated multi-objective options.

    ``options[i]`` is a tuple of cost :class:`Histogram` distributions,
    one per objective.  Option A dominates option B when A is weakly
    FSD-better (``CDF_A >= CDF_B`` everywhere, as costs) in *every*
    objective and strictly better in at least one — the distributional
    generalization of :func:`dominates`.  Each objective's verdicts are
    decided exactly on one shared union-support grid, and the
    dominance-pruning kernel of :mod:`repro.decision.stochastic` reads
    all objectives' CDF matrices at once, so the whole front costs one
    CDF matrix per objective instead of n²·m pairwise dominance calls.

    With ``reduce_to=k``, the option ensemble is first compressed by
    W1 forward selection under the *summed* per-objective Wasserstein
    distance (see :func:`repro.decision.reduction.reduce_scenarios`),
    and every CDF matrix is built over the k representatives' reduced
    support grids only; the returned indices are then drawn from the
    representatives.
    """
    options = [tuple(option) for option in options]
    if not options:
        return []
    n_objectives = len(options[0])
    if n_objectives == 0:
        raise ValueError("options need at least one objective")
    for option in options:
        if len(option) != n_objectives:
            raise ValueError(
                "every option needs the same number of objectives")
        for distribution in option:
            if not isinstance(distribution, Histogram):
                raise TypeError("objective costs must be Histograms")

    original = np.arange(len(options))
    if reduce_to is not None and reduce_to < len(options):
        from .reduction import reduce_scenarios, wasserstein_matrix

        combined = sum(
            wasserstein_matrix([option[j] for option in options])
            for j in range(n_objectives)
        )
        reduction = reduce_scenarios(options, reduce_to,
                                     distance_matrix=combined)
        original = reduction.indices
        options = [options[int(i)] for i in original]

    scores = []
    for j in range(n_objectives):
        members = [option[j] for option in options]
        grid = _support_union(members)
        scores.append(np.vstack([m.cdf(grid) for m in members]))
    survivors = np.flatnonzero(~_dominated(scores, tol))
    if len(survivors) == 0:  # all mutually dominated within tolerance
        survivors = np.arange(len(options))
    return [int(original[s]) for s in survivors]


def scalarize(costs, weights):
    """Preference-weighted objective: index of the best option.

    ``weights`` are normalized to sum to one; objectives should be
    commensurate (normalize beforehand if not).
    """
    costs = np.asarray(costs, dtype=float)
    weights = check_probability_vector(weights, "weights")
    if costs.shape[1] != len(weights):
        raise ValueError("one weight per objective required")
    return int(np.argmin(costs @ weights))


class SkylineRouter:
    """Route skyline computation over vector edge costs [15].

    Parameters
    ----------
    network:
        The road network; each edge the search expands must carry the
        attributes named in ``objectives``.
    objectives:
        Edge-attribute names forming the cost vector (all minimized).
    max_labels:
        Per-node cap on retained Pareto labels (guards the worst case).
    """

    def __init__(self, network, objectives, *, max_labels=64):
        if not isinstance(network, RoadNetwork):
            raise TypeError("network must be a RoadNetwork")
        objectives = list(objectives)
        if len(objectives) < 2:
            raise ValueError("skylines need at least two objectives")
        self.network = network
        self.objectives = objectives
        self.max_labels = int(check_positive(max_labels, "max_labels"))

    def _cost_rows(self, node):
        """``[(successor, edge cost tuple)]`` of ``node``, in successor
        order; a missing objective is a :class:`KeyError`."""
        rows = []
        for successor, data in self.network._out_edges(node):
            for name in self.objectives:
                if name not in data:
                    raise KeyError(f"edge ({node!r}, {successor!r}) has "
                                   f"no {name!r} cost")
            rows.append((successor, tuple([float(data[name])
                                           for name in self.objectives])))
        return rows

    def skyline(self, origin, destination):
        """All Pareto-optimal routes from origin to destination.

        Returns a list of ``(path, cost_vector)`` pairs, mutually
        non-dominated.  Raises :class:`KeyError` for an origin or
        destination not in the network, and for an expanded edge that
        lacks one of the objectives.

        A label-correcting search over FIFO-queued nodes: a node keeps
        at most ``max_labels`` labels ``(cost tuple, path)`` of plain
        floats, and is re-queued only when that capped set changed.  A
        path that once left a node's set (dominated, or cut by the
        cap) is never admitted there again, so every (node, path) pair
        enters a set at most once and the search ends.
        """
        if origin == destination:
            raise ValueError("origin and destination must differ")
        index_of, _ = self.network.node_index()
        for node in (origin, destination):
            if node not in index_of:
                raise KeyError(f"node {node!r} is not in the network")
        labels = {origin: [((0.0,) * len(self.objectives), (origin,))]}
        admitted = {origin: {(origin,)}}  # every path a set ever held
        rows = {}
        queue = deque([origin])
        queued = {origin}
        while queue:
            node = queue.popleft()
            queued.discard(node)
            node_labels = labels[node]
            row = rows.get(node)
            if row is None:
                row = rows[node] = self._cost_rows(node)
            for successor, edge in row:
                candidates = [
                    (tuple(map(add, cost, edge)), path + (successor,))
                    for cost, path in node_labels
                    if successor not in path  # simple paths only
                ]
                if not candidates:
                    continue
                merged = self._merge(labels.get(successor, []),
                                     candidates,
                                     admitted.setdefault(successor, set()))
                if merged is not None:
                    labels[successor] = merged
                    if successor not in queued:
                        queued.add(successor)
                        queue.append(successor)
        return [(list(path), np.array(cost))
                for cost, path in labels.get(destination, [])]

    def _merge(self, existing, candidates, admitted):
        """Merge candidate labels into a node's capped Pareto set.

        Returns the new label list, or None when the set is unchanged.
        ``admitted`` (the paths the set ever held) grows in place.
        """
        pool = existing
        for cost, path in candidates:
            if path in admitted:
                continue
            for other, _ in pool:
                if _dominates(other, cost) or _close(other, cost):
                    break
            else:
                pool = [label for label in pool
                        if not _dominates(cost, label[0])]
                pool.append((cost, path))
                admitted.add(path)
        if len(pool) > self.max_labels:
            # Keep the labels with the best scalarized spread.
            pool.sort(key=lambda label: _array_sum(label[0]))
            del pool[self.max_labels:]
        if len(pool) == len(existing) and all(
                new is old for new, old in zip(pool, existing)):
            return None
        return pool


# The skyline's label tests on float tuples.  Each decides exactly as
# its numpy expression on float64 arrays does.

def _dominates(first, second, tol=1e-12):
    """:func:`dominates` on float tuples."""
    strict = False
    for x, y in zip(first, second):
        if not x <= y + tol:
            return False
        if x < y - tol:
            strict = True
    return strict


def _close(first, second):
    """``np.allclose(first, second)``: ``|x - y| <= 1e-08 + 1e-05|y|``
    for finite ``y``, else ``x == y``."""
    for x, y in zip(first, second):
        if not (x == y or abs(x - y) <= 1e-08 + 1e-05 * abs(y) < math.inf):
            return False
    return True


def _array_sum(values):
    """``np.array(values).sum()``: numpy adds fewer than eight floats
    left to right and pairwise beyond that."""
    if len(values) >= 8:
        return float(np.array(values).sum())
    total = 0.0
    for value in values:
        total += value
    return total
