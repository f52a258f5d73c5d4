"""Scenario reduction: Wasserstein/DTW compression of Monte-Carlo
ensembles (ROADMAP item 3, after Schardong et al., Decision Support
Systems 2018).

The decision layer consumes *ensembles*: hundreds to thousands of
Monte-Carlo travel-time or forecast scenarios, each either a cost
:class:`Histogram` or a trajectory (one row of a ``(n, horizon)``
array).  Every downstream query — dominance pruning, expected-utility
selection, stochastic Pareto fronts — pays at least O(N² · |grid|)
over the full ensemble.  This module compresses an ensemble to
``k ≪ N`` *representative* members with bounded distortion so those
queries run over k instead of N:

* :func:`wasserstein_distance` — the **exact** 1-D Wasserstein (W1)
  distance between two histograms: both CDFs are step functions
  jumping only at positive-mass atoms, so the CDF-difference integral
  is a finite sum over the union of atoms — no quadrature grid, no
  approximation error.  It is
  :func:`repro.governance.uncertainty.wasserstein_distance`,
  re-exported here, the one W1 the library has;
* :func:`wasserstein_matrix` / :func:`dtw_band_matrix` — vectorized
  pairwise distances over a whole ensemble (shared union-grid CDF
  matrix; ensemble-axis-vectorized Sakoe-Chiba-banded DTW), gated
  against brute-force pairwise oracles in ``tests/oracles.py`` (tests
  cross-check the DTW kernel against
  :func:`repro.analytics.classification.distance.dtw_distance`);
* :func:`reduce_scenarios` — fast-forward-selection scenario reduction
  in the style of Heitsch & Römisch: greedily grow the representative
  set, each step picking the scenario that most lowers the
  probability-weighted transport cost, then redistribute every deleted
  scenario's probability onto its nearest survivor.  The resulting
  :class:`Reduction` records who survived, the redistributed weights,
  the member→representative assignment and the achieved distortion
  (an upper bound on the W1 distance between the full and reduced
  ensemble distributions);
* :func:`fan_chart` / :func:`rank_plot` — JSON-ready export data for
  the visual-analytics side of scenario reduction: weighted quantile
  fan bands and per-step scenario ranks of (reduced) trajectory
  ensembles.

Every reduction publishes ``decision.reduction_*`` metrics (input and
output scenario counts, a distortion histogram) through the process
metrics registry, so production traffic shows how much ensemble mass
is being compressed and how lossy the compression is.

The wiring into the decision layer lives in the callers:
``dominance_prune`` / ``select_best`` accept ``reduce_to=`` /
``reduction=``, :class:`~repro.decision.StochasticRouter` takes a
``reduction=`` config (memoized per OD pair and departure window),
and :func:`repro.decision.pareto.stochastic_pareto_front` reduces
option ensembles before the per-objective FSD matrix.  The E29
benchmark gates the end-to-end speedup, the W1 distortion bound and
zero decision regret on the benchmark workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import check_positive, check_probability_vector
from ..governance.uncertainty import Histogram, wasserstein_distance
from ..governance.uncertainty.travel_time import _atom_cdf

__all__ = [
    "Reduction",
    "dtw_band_matrix",
    "fan_chart",
    "rank_plot",
    "reduce_scenarios",
    "wasserstein_distance",
    "wasserstein_matrix",
]

#: Soft cap (bytes) on the temporary broadcast block of
#: :func:`wasserstein_matrix`; rows are processed in blocks sized so
#: ``block * n * grid * 8`` stays under this.
_MATRIX_BLOCK_BYTES = 32 * 1024 * 1024

#: Bucket bounds for the ``decision.reduction_distortion`` histogram —
#: distortions are workload-scaled (cost units), so the buckets span
#: sub-percent to order-one-hundred costs.
_DISTORTION_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
                       100.0)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------

def wasserstein_matrix(histograms):
    """Pairwise exact-W1 matrix over an ensemble of histograms.

    One shared union grid of positive-mass atoms decides every pair:
    with the stacked CDF matrix ``C`` and atom gaps ``g``,
    ``D[i, j] = Σ_t |C[i, t] - C[j, t]| g[t]`` — the same sum
    :func:`wasserstein_distance` evaluates per pair, because adding
    another member's atoms to a pair's union grid only inserts points
    where both step functions are constant.  Rows are processed in
    bounded broadcast blocks so the temporary ``(block, n, grid)``
    array stays small.
    """
    histograms = list(histograms)
    for histogram in histograms:
        if not isinstance(histogram, Histogram):
            raise TypeError("ensemble members must be Histograms")
    n = len(histograms)
    if n == 0:
        return np.zeros((0, 0))
    grid, cdf = _atom_cdf(histograms)
    matrix = np.zeros((n, n))
    if len(grid) < 2:
        return matrix
    gaps = np.diff(grid)
    steps = cdf[:, :-1]
    block = max(1, int(_MATRIX_BLOCK_BYTES / max(n * steps.shape[1] * 8,
                                                 1)))
    for begin in range(0, n, block):
        chunk = steps[begin:begin + block]
        matrix[begin:begin + block] = np.abs(
            chunk[:, None, :] - steps[None, :, :]) @ gaps
    return matrix


def dtw_band_matrix(trajectories, *, band=None):
    """Pairwise banded-DTW matrix over a trajectory ensemble.

    Parameters
    ----------
    trajectories:
        ``(n, horizon)`` array; each row is one scenario trajectory.
    band:
        Sakoe-Chiba band half-width (``None`` = unconstrained).  Same
        semantics — and the same per-pair values — as
        :func:`repro.analytics.classification.distance.dtw_distance`,
        which the tests keep as the pairwise oracle.

    The dynamic program is vectorized over the *ensemble* axis: one
    anchor row is warped against every later row simultaneously, so
    the Python-level loop is O(horizon · band) per anchor instead of
    O(n · horizon · band).
    """
    X = np.asarray(trajectories, dtype=float)
    if X.ndim != 2:
        raise ValueError("trajectories must be 2-D (scenarios x steps)")
    n, horizon = X.shape
    if horizon == 0:
        raise ValueError("trajectories must have at least one step")
    width = horizon if band is None else max(int(band), 0)
    matrix = np.zeros((n, n))
    for i in range(n - 1):
        matrix[i, i + 1:] = matrix[i + 1:, i] = _dtw_one_vs_many(
            X[i], X[i + 1:], width)
    return matrix


def _dtw_one_vs_many(anchor, others, band):
    """Banded DTW of ``anchor`` against every row of ``others``."""
    count, horizon = others.shape
    previous = np.full((count, horizon + 1), np.inf)
    previous[:, 0] = 0.0
    current = np.empty_like(previous)
    for i in range(1, horizon + 1):
        current.fill(np.inf)
        low = max(1, i - band)
        high = min(horizon, i + band)
        cost = (anchor[i - 1] - others[:, low - 1:high]) ** 2
        for j in range(low, high + 1):
            best = np.minimum(previous[:, j], previous[:, j - 1])
            np.minimum(best, current[:, j - 1], out=best)
            current[:, j] = cost[:, j - low] + best
        previous, current = current, previous
    return np.sqrt(previous[:, horizon])


# ---------------------------------------------------------------------------
# Forward-selection reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reduction:
    """The result of one scenario reduction.

    Attributes
    ----------
    indices:
        Ascending original indices of the k surviving representatives
        (always a subset of the input ensemble).
    probabilities:
        Redistributed probability of each survivor — its own mass plus
        the mass of every deleted scenario assigned to it; sums to 1.
    assignment:
        For every input scenario, the *position into* ``indices`` of
        its representative (survivors map to themselves).
    distortion:
        The transport cost ``Σ p_i · d(i, representative(i))`` paid by
        the redistribution — an upper bound on the W1 distance between
        the full and the reduced ensemble distribution under the
        chosen metric.
    n_input:
        Input ensemble size.
    """

    indices: np.ndarray
    probabilities: np.ndarray
    assignment: np.ndarray
    distortion: float
    n_input: int

    @property
    def n_reduced(self):
        return len(self.indices)

    def members(self, position):
        """Original indices assigned to the survivor at ``position``
        (the survivor itself included)."""
        if not 0 <= position < len(self.indices):
            raise IndexError(f"no representative at {position}")
        return [int(i) for i in
                np.flatnonzero(self.assignment == position)]

    def representative_of(self, index):
        """Original index of the representative of scenario ``index``."""
        return int(self.indices[self.assignment[index]])

    def export(self):
        """JSON-ready summary (what benchmark artifacts embed)."""
        return {
            "n_input": int(self.n_input),
            "n_reduced": int(self.n_reduced),
            "indices": [int(i) for i in self.indices],
            "probabilities": [float(p) for p in self.probabilities],
            "assignment": [int(a) for a in self.assignment],
            "distortion": float(self.distortion),
        }


def _distance_matrix_for(scenarios, metric, band):
    if metric == "wasserstein":
        return wasserstein_matrix(scenarios)
    if metric == "dtw":
        return dtw_band_matrix(scenarios, band=band)
    if metric == "euclidean":
        X = np.asarray(scenarios, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError(
                "euclidean scenarios must be 1-D or 2-D arrays")
        diff = X[:, None, :] - X[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=2))
    raise ValueError(
        f"unknown metric {metric!r}; expected 'wasserstein', 'dtw' or "
        "'euclidean'")


def _default_metric(scenarios):
    try:
        first = scenarios[0]
    except (IndexError, TypeError):
        return "euclidean"
    return "wasserstein" if isinstance(first, Histogram) else "euclidean"


def _forward_selection(distance, probabilities, k):
    """Heitsch-Römisch fast forward selection over a distance matrix.

    Each step adds the scenario minimizing the redistribution objective
    ``z(u) = Σ_i p_i · min(d_i, D[i, u])`` where ``d_i`` is scenario
    i's distance to the current representative set; stops early when
    every scenario is already represented at zero cost.
    """
    n = len(probabilities)
    nearest = np.full(n, np.inf)
    selected = []
    for _ in range(k):
        objective = probabilities @ np.minimum(distance,
                                               nearest[:, None])
        objective[selected] = np.inf
        pick = int(np.argmin(objective))
        selected.append(pick)
        np.minimum(nearest, distance[:, pick], out=nearest)
        if probabilities @ nearest <= 0.0:
            break
    return selected


def reduce_scenarios(scenarios, k, *, probabilities=None, metric=None,
                     band=None, distance_matrix=None):
    """Compress an ensemble to ``k`` representatives (forward
    selection + probability redistribution).

    Parameters
    ----------
    scenarios:
        The ensemble: a sequence of :class:`Histogram` members
        (``metric="wasserstein"``), a ``(n, horizon)`` trajectory
        array (``metric="dtw"`` or ``"euclidean"``), or anything at
        all when ``distance_matrix=`` is supplied directly.
    k:
        Number of representatives to keep; ``k >= n`` returns the
        identity reduction.
    probabilities:
        Scenario probabilities (uniform by default); normalized.
    metric:
        Distance between members; inferred from the first member when
        omitted (Histogram → ``"wasserstein"``, else ``"euclidean"``).
    band:
        Sakoe-Chiba half-width forwarded to :func:`dtw_band_matrix`.
    distance_matrix:
        Precomputed ``(n, n)`` member distances; skips the metric.

    Returns
    -------
    Reduction
        Survivors (a subset of the input, ascending), redistributed
        probabilities, the member→representative assignment and the
        achieved distortion.  Also published to the process metrics
        registry as ``decision.reduction_*``.
    """
    n = len(scenarios)
    if n == 0:
        raise ValueError("scenarios must not be empty")
    k = int(check_positive(k, "k"))
    if probabilities is None:
        weights = np.full(n, 1.0 / n)
    else:
        weights = check_probability_vector(probabilities,
                                           "probabilities")
        if len(weights) != n:
            raise ValueError("one probability per scenario required")

    if k >= n:
        reduction = Reduction(
            indices=np.arange(n), probabilities=weights.copy(),
            assignment=np.arange(n), distortion=0.0, n_input=n)
        _publish_metrics(reduction)
        return reduction

    if distance_matrix is not None:
        distance = np.asarray(distance_matrix, dtype=float)
        if distance.shape != (n, n):
            raise ValueError(
                f"distance_matrix must be ({n}, {n}), got "
                f"{distance.shape}")
    else:
        distance = _distance_matrix_for(
            scenarios, metric or _default_metric(scenarios), band)

    selected = _forward_selection(distance, weights, k)
    indices = np.array(sorted(selected))
    # Nearest-survivor assignment and probability redistribution: each
    # deleted scenario hands its whole mass to its closest survivor.
    to_survivors = distance[:, indices]
    assignment = np.argmin(to_survivors, axis=1)
    assignment[indices] = np.arange(len(indices))  # exact self-match
    redistributed = np.zeros(len(indices))
    np.add.at(redistributed, assignment, weights)
    distortion = float(
        weights @ to_survivors[np.arange(n), assignment])
    reduction = Reduction(
        indices=indices, probabilities=redistributed,
        assignment=assignment, distortion=distortion, n_input=n)
    _publish_metrics(reduction)
    return reduction


def _publish_metrics(reduction):
    """Flush one reduction's telemetry to the process registry."""
    from ..observability.metrics import get_registry

    registry = get_registry()
    counter = registry.counter(
        "decision.reduction_scenarios_total",
        "Scenario counts through reduce_scenarios by direction")
    counter.inc(reduction.n_input, direction="in")
    counter.inc(reduction.n_reduced, direction="out")
    registry.histogram(
        "decision.reduction_distortion",
        "Probability-weighted transport cost paid per reduction",
        buckets=_DISTORTION_BUCKETS).observe(reduction.distortion)


# ---------------------------------------------------------------------------
# Plot-data export (fan charts and rank plots)
# ---------------------------------------------------------------------------

def _weighted_column_quantiles(values, weights, quantiles):
    """Weighted quantile per column: smallest value with cumulative
    weight >= q (the :meth:`Histogram.quantile` convention)."""
    order = np.argsort(values, axis=0)
    ordered = np.take_along_axis(values, order, axis=0)
    cumulative = np.cumsum(weights[order], axis=0)
    columns = np.arange(values.shape[1])
    rows = []
    for q in quantiles:
        picks = np.minimum((cumulative >= q - 1e-12).argmax(axis=0),
                           len(weights) - 1)
        rows.append(ordered[picks, columns])
    return rows


def fan_chart(trajectories, *, probabilities=None,
              quantiles=(0.05, 0.25, 0.5, 0.75, 0.95)):
    """Weighted quantile fan bands of a trajectory ensemble.

    Pass the *reduced* members and the reduction's redistributed
    probabilities to plot the compressed ensemble with preserved tail
    mass::

        red = reduce_scenarios(paths, 12, metric="dtw", band=6)
        chart = fan_chart(paths[red.indices],
                          probabilities=red.probabilities)

    Returns a JSON-ready dict: ``quantiles``, one band per quantile
    (each ``horizon`` long), the weighted ``mean`` trajectory, and the
    scenario count.
    """
    X = np.asarray(trajectories, dtype=float)
    if X.ndim != 2:
        raise ValueError("trajectories must be 2-D (scenarios x steps)")
    quantiles = [float(q) for q in quantiles]
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantiles must be in [0, 1], got {q!r}")
    if probabilities is None:
        weights = np.full(len(X), 1.0 / len(X))
    else:
        weights = check_probability_vector(probabilities,
                                           "probabilities")
        if len(weights) != len(X):
            raise ValueError("one probability per trajectory required")
    bands = _weighted_column_quantiles(X, weights, quantiles)
    return {
        "quantiles": quantiles,
        "bands": {f"{q:g}": [float(v) for v in band]
                  for q, band in zip(quantiles, bands)},
        "mean": [float(v) for v in weights @ X],
        "n_scenarios": int(len(X)),
    }


def rank_plot(trajectories):
    """Per-step scenario ranks — the rank-plot view of scenario
    spread (rank 0 = smallest value at that step).

    Returns a JSON-ready dict with the ``(n, horizon)`` rank table and
    the scenario order by mean rank (most dominant first), which is
    how rank plots order their rows.
    """
    X = np.asarray(trajectories, dtype=float)
    if X.ndim != 2:
        raise ValueError("trajectories must be 2-D (scenarios x steps)")
    ranks = np.argsort(np.argsort(X, axis=0), axis=0)
    order = np.argsort(ranks.mean(axis=1))
    return {
        "ranks": [[int(r) for r in row] for row in ranks],
        "order": [int(i) for i in order],
        "n_scenarios": int(len(X)),
    }
