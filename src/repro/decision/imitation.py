"""Learning-based routing from sparse expert trajectories [56].

Paper §II-D: "professional taxi drivers possess an intimate
understanding of urban traffic ... By analyzing the trajectories of
expert drivers, it is possible to enable human drivers and autonomous
vehicles to mimic their behavior.  Beyond simple imitation, this
strategy involves dissecting and enhancing the determinants of expert
decisions."

The reproduction dissects expert choices into two per-edge signals:

* **avoidance** — how much *less* the experts use an edge than
  shortest-path routing over the *same* origin-destination pairs would
  (the counterfactual comparison is the key: raw popularity confounds
  edge attractiveness with trip geography);
* **popularity** — the experts' absolute usage, a mild positive prior
  toward corridors they demonstrably favour.

Both signals are diffused over the line graph (the semi-supervised
completion machinery of [11]) because sparse trajectory sets never
cover every road, and are combined into a routing cost::

    cost(e) = length(e) * (1 + penalty * avoidance(e)+)
                        / (1 + bonus * popularity(e))
"""

from __future__ import annotations

import numpy as np

from .._validation import check_non_negative
from ..datatypes import RoadNetwork
from ..governance.imputation import LabelPropagationCompleter

__all__ = ["ImitationRouter"]


class ImitationRouter:
    """Route like the experts whose trajectories we observed.

    Parameters
    ----------
    network:
        The road network.
    avoidance_penalty:
        Strength of the penalty on edges experts systematically avoid.
    popularity_bonus:
        Strength of the (mild) discount on edges experts favour.
    smooth:
        Diffuse both signals to unvisited edges over the line graph.
    """

    def __init__(self, network, *, avoidance_penalty=1.5,
                 popularity_bonus=0.3, smooth=True, smoothing_alpha=0.6):
        if not isinstance(network, RoadNetwork):
            raise TypeError("network must be a RoadNetwork")
        self.network = network
        self.avoidance_penalty = float(
            check_non_negative(avoidance_penalty, "avoidance_penalty"))
        self.popularity_bonus = float(
            check_non_negative(popularity_bonus, "popularity_bonus"))
        self.smooth = bool(smooth)
        self.smoothing_alpha = float(smoothing_alpha)
        self._avoidance = None
        self._popularity = None

    def _diffuse(self, observed, *, clamp=None):
        if self.smooth:
            completer = LabelPropagationCompleter(
                alpha=self.smoothing_alpha)
            values = completer.complete(self.network, observed)
        else:
            values = {edge: observed.get(edge, 0.0)
                      for edge in self.network.edges()}
        if clamp is not None:
            low, high = clamp
            values = {edge: min(max(value, low), high)
                      for edge, value in values.items()}
        return values

    def fit(self, expert_paths):
        """Learn avoidance and popularity from expert node paths."""
        expert_paths = list(expert_paths)
        if not expert_paths:
            raise ValueError("need at least one expert path")
        expert_use = {}
        shortest_use = {}
        for path in expert_paths:
            shortest = self.network.shortest_path(path[0], path[-1])
            for edge in self.network.path_edges(path):
                expert_use[edge] = expert_use.get(edge, 0) + 1
            for edge in self.network.path_edges(shortest):
                shortest_use[edge] = shortest_use.get(edge, 0) + 1

        total_expert = sum(expert_use.values())
        total_shortest = sum(shortest_use.values())
        avoidance = {}
        for edge in set(expert_use) | set(shortest_use):
            expert_share = expert_use.get(edge, 0) / total_expert
            shortest_share = shortest_use.get(edge, 0) / total_shortest
            avoidance[edge] = (shortest_share - expert_share) \
                * total_expert
        peak = max(abs(value) for value in avoidance.values())
        if peak > 0:
            avoidance = {edge: value / peak
                         for edge, value in avoidance.items()}
        self._avoidance = self._diffuse(avoidance, clamp=(-1.0, 1.0))

        peak_use = max(expert_use.values())
        popularity = {edge: count / peak_use
                      for edge, count in expert_use.items()}
        self._popularity = self._diffuse(popularity, clamp=(0.0, 1.0))
        return self

    def _check_fitted(self):
        if self._avoidance is None:
            raise RuntimeError("fit before routing")

    def edge_popularity(self, u, v):
        self._check_fitted()
        return self._popularity[(u, v)]

    def edge_avoidance(self, u, v):
        self._check_fitted()
        return self._avoidance[(u, v)]

    def routing_cost(self, u, v):
        """The learned, expert-shaped edge cost."""
        self._check_fitted()
        length = self.network.edge_length(u, v)
        penalty = 1.0 + self.avoidance_penalty * max(
            self._avoidance[(u, v)], 0.0)
        bonus = 1.0 + self.popularity_bonus * self._popularity[(u, v)]
        return length * penalty / bonus

    def route(self, origin, destination):
        """The expert-mimicking route: the shortest path by
        :meth:`routing_cost`.  An unknown node raises :class:`KeyError`,
        no path :class:`ValueError`."""
        self._check_fitted()
        costs = [self.routing_cost(u, v) for u, v in self.network.edges()]
        return self.network._shortest(origin, destination, costs)

    def imitation_score(self, expert_paths):
        """Mean route similarity (1 - Jaccard distance) against the
        experts' own origin-destination choices."""
        scores = []
        for path in expert_paths:
            recommended = self.route(path[0], path[-1])
            scores.append(
                1.0 - self.network.route_distance(path, recommended))
        return float(np.mean(scores))

    def popularity_coverage(self):
        """Fraction of network edges carrying a positive popularity
        estimate (diagnostic for the sparsity experiments)."""
        self._check_fitted()
        values = np.array(list(self._popularity.values()))
        return float((values > 1e-6).mean())
