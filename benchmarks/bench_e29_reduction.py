"""E29 — Scenario reduction: k<<N stochastic decisions without regret.

Claim: compressing a Monte-Carlo scenario ensemble to ``k`` weighted
representatives (exact-W1 forward selection, `repro.decision.reduction`)
turns the O(N^2 * |grid|) dominance/utility sweep into an O(k^2) one
while returning the *same decision* — the reduced-ensemble winner
matches the full-ensemble winner at machine precision on every query.

Four phases, all gated:

1. **Kernel equivalence** — the vectorized ``wasserstein_matrix``
   matches the brute-force pairwise W1 oracle exactly; vectorized
   banded DTW matches the analytics ``dtw_distance`` oracle at a
   large speedup; forward selection matches the pure-Python
   Heitsch-Romisch reference step for step.
2. **select_best at N>=1000 -> k<=50** — a deadline/risk utility
   sweep over a 1000-member travel-time ensemble; the reduced path
   (reduction *included* in the timed region, amortized over the
   sweep) must be >= 5x faster with zero value regret and bounded
   W1 distortion.
3. **route_many end-to-end** — a full vs ``reduction=`` router over
   repeated fleet traffic; identical expected utilities, memoized
   one-reduction-per-(OD, window), speedup recorded and floored.
4. **Exports** — fan-chart / rank-plot summaries of the trajectory
   ensemble land in the artifact (monotone bands, valid ranks).

``BENCH_E29_SCALE=small`` shrinks every workload for CI smoke runs
(equivalence and regret gates stay exact; the 5x floor applies at
full scale only).  Results go to ``BENCH_e29.json``.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from conftest import print_table

from repro import RoadNetwork
from repro.analytics.classification.distance import dtw_distance
from repro.benchmarking import summarize_latencies
from repro.datasets import TrafficSimulator
from repro.decision import (
    StochasticRouter,
    dtw_band_matrix,
    fan_chart,
    rank_plot,
    reduce_scenarios,
    select_best,
    wasserstein_matrix,
)
from repro.decision.reduction import _forward_selection
from repro.decision.utility import (
    DeadlineUtility,
    RiskAverseUtility,
    RiskNeutralUtility,
)
from repro.governance.uncertainty import EdgeCentricModel, Histogram
from repro.observability.metrics import use_registry
from tests.oracles import reduce_reference, wasserstein_pairwise

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_e29.json"

SCALE = os.environ.get("BENCH_E29_SCALE", "full").strip().lower()
SMALL = SCALE == "small"

#: Phase-2 ensemble size and survivor count — the ISSUE gate is
#: N >= 1000 -> k <= 50 at >= 5x.  Small scale keeps the same shape
#: (and all the exactness gates) at CI-smoke cost.
N_SCENARIOS = 240 if SMALL else 1000
K_SURVIVORS = 24 if SMALL else 50
N_QUERIES = 60 if SMALL else 240

#: Speedup floors.  The select_best floor is the headline perf claim;
#: at small scale the reduction's one-time O(N^2) cost is amortized
#: over too few queries to clear 5x, so the floor stands down (the
#: equivalence / zero-regret / distortion gates never do).
SELECT_TARGET_SPEEDUP = 1.0 if SMALL else 5.0
DTW_TARGET_SPEEDUP = 5.0
ROUTE_TARGET_SPEEDUP = 1.0 if SMALL else 1.3

#: Fixed W1 distortion ceiling for the phase-2 reduction (minutes).
#: The ensemble spans ~[0, 60] minutes; a sub-minute probability-mass
#: transport error is far below any utility's decision resolution.
DISTORTION_BOUND = 1.0

#: Zero-regret tolerance: expected utilities are sums of ~1e2 float
#: products, so "identical decision value" means agreement at 1e-9.
REGRET_TOL = 1e-9

N_TRAJECTORIES = 60 if SMALL else 160
HORIZON = 48
DTW_BAND = 6

ROUTE_CANDIDATES = 16 if SMALL else 48
ROUTE_REDUCTION = 6 if SMALL else 8


def make_ensemble(n, rng):
    """``n`` travel-time histograms on one shared [0, 60]-minute grid.

    Gamma-family Monte-Carlo draws with per-scenario shape/scale/shift
    — the classic posterior-predictive travel-time ensemble.  A shared
    binning keeps the union atom grid small, which is exactly how a
    production ensemble (one generator, many scenarios) looks.
    """
    ensemble = []
    for _ in range(n):
        shape = rng.uniform(2.0, 9.0)
        scale = rng.uniform(0.8, 2.5)
        samples = rng.gamma(shape, scale, 400) + rng.uniform(0.0, 6.0)
        ensemble.append(Histogram.from_samples(
            samples, n_bins=120, bounds=(0.0, 60.0)))
    return ensemble


def make_trajectories(n, rng):
    """Diurnal-profile speed trajectories with shared shape classes."""
    base = np.sin(np.linspace(0.0, 2.0 * np.pi, HORIZON))
    rows = []
    for _ in range(n):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amplitude = rng.uniform(0.5, 2.0)
        drift = rng.uniform(-0.02, 0.02)
        noise = rng.normal(0.0, 0.15, HORIZON)
        rows.append(amplitude * np.roll(base, int(phase * 7)) +
                    drift * np.arange(HORIZON) + noise)
    return np.asarray(rows)


def bench_wasserstein_kernel(ensemble, rng):
    """Vectorized W1 matrix vs the brute-force pairwise oracle."""
    sample = [ensemble[i] for i in
              rng.choice(len(ensemble), size=min(80, len(ensemble)),
                         replace=False)]
    start = time.perf_counter()
    reference = wasserstein_pairwise(sample)
    reference_s = time.perf_counter() - start
    start = time.perf_counter()
    kernel = wasserstein_matrix(sample)
    kernel_s = time.perf_counter() - start
    return {
        "kernel": "wasserstein_matrix",
        "n": len(sample),
        "reference_s": round(reference_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(reference_s / max(kernel_s, 1e-12), 2),
        "equivalent": bool(np.allclose(kernel, reference,
                                       rtol=1e-10, atol=1e-12)),
    }


def bench_dtw_kernel(trajectories):
    """Ensemble-vectorized banded DTW vs the pairwise analytics oracle."""
    n = len(trajectories)
    start = time.perf_counter()
    reference = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            reference[i, j] = reference[j, i] = dtw_distance(
                trajectories[i], trajectories[j], band=DTW_BAND)
    reference_s = time.perf_counter() - start
    start = time.perf_counter()
    kernel = dtw_band_matrix(trajectories, band=DTW_BAND)
    kernel_s = time.perf_counter() - start
    return {
        "kernel": "dtw_band_matrix",
        "n": n,
        "reference_s": round(reference_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(reference_s / max(kernel_s, 1e-12), 2),
        "equivalent": bool(np.allclose(kernel, reference,
                                       rtol=1e-10, atol=1e-12)),
    }


def bench_selection_oracle(ensemble, rng):
    """Vectorized forward selection vs the pure-Python reference."""
    sample = [ensemble[i] for i in
              rng.choice(len(ensemble), size=min(60, len(ensemble)),
                         replace=False)]
    distance = wasserstein_matrix(sample)
    weights = np.full(len(sample), 1.0 / len(sample))
    indices = _forward_selection(distance, weights, 12)
    ref_indices = reduce_reference(distance, weights, 12)

    def achieved_distortion(selected):
        return float(weights @ distance[:, list(selected)].min(axis=1))

    # Greedy picks can tie at machine precision (BLAS vs python-sum
    # rounding), so the oracle gate is the *achieved objective*: both
    # selections must transport the dropped mass at the same cost.
    distortion = achieved_distortion(indices)
    ref_distortion = achieved_distortion(ref_indices)
    return {
        "kernel": "forward_selection",
        "n": len(sample),
        "k": 12,
        "picks_identical": bool(list(indices) == list(ref_indices)),
        "equivalent": bool(
            abs(distortion - ref_distortion) <= 1e-9),
    }


def make_utilities():
    """The phase-2 query sweep: deadlines plus risk preferences.

    Deadline sweeps are what an arrival-window product runs per user;
    the risk-averse / risk-neutral tail checks strictly-monotone
    utilities (unique argmax) through the same reduction.
    """
    n_deadline = N_QUERIES - N_QUERIES // 6 - 1
    utilities = [DeadlineUtility(d)
                 for d in np.linspace(8.0, 45.0, n_deadline)]
    utilities += [RiskAverseUtility(aversion=a, scale=10.0)
                  for a in np.linspace(0.05, 0.6, N_QUERIES // 6)]
    utilities.append(RiskNeutralUtility())
    return utilities


def bench_select_best(ensemble):
    """Phase 2: the N>=1000 -> k<=50 utility sweep, full vs reduced."""
    utilities = make_utilities()

    full_latencies = []
    full_answers = []
    start = time.perf_counter()
    for utility in utilities:
        t0 = time.perf_counter()
        full_answers.append(select_best(ensemble, utility))
        full_latencies.append(time.perf_counter() - t0)
    full_s = time.perf_counter() - start

    # Reduced path: the one-time W1 forward selection is *inside* the
    # timed region — the claim is end-to-end, amortized over the sweep.
    reduced_latencies = []
    reduced_answers = []
    start = time.perf_counter()
    reduction = reduce_scenarios(ensemble, K_SURVIVORS)
    for utility in utilities:
        t0 = time.perf_counter()
        reduced_answers.append(
            select_best(ensemble, utility, reduction=reduction))
        reduced_latencies.append(time.perf_counter() - t0)
    reduced_s = time.perf_counter() - start

    regrets = [abs(full_value - reduced_value)
               for (_, full_value, _), (_, reduced_value, _)
               in zip(full_answers, reduced_answers)]
    winners_match = sum(
        full_index == reduced_index
        for (full_index, _, _), (reduced_index, _, _)
        in zip(full_answers, reduced_answers))
    return {
        "phase": "select_best",
        "n_scenarios": len(ensemble),
        "k": reduction.n_reduced,
        "n_queries": len(utilities),
        "full_s": round(full_s, 4),
        "reduced_s": round(reduced_s, 4),
        "speedup": round(full_s / max(reduced_s, 1e-12), 2),
        "max_value_regret": float(max(regrets)),
        "winners_matched": int(winners_match),
        "distortion": float(reduction.distortion),
        "full_latency": summarize_latencies(full_latencies),
        "reduced_latency": summarize_latencies(reduced_latencies),
    }


def build_world():
    """The E28 fleet world, with every edge covered by the cost model."""
    network = RoadNetwork.grid(6, 6)
    simulator = TrafficSimulator(network, rng=np.random.default_rng(0))
    od_pairs = [((0, 0), (5, 5)), ((0, 5), (5, 0)), ((3, 0), (3, 5)),
                ((0, 2), (5, 2))]
    rng = np.random.default_rng(2)
    trips = []
    for origin, destination in od_pairs:
        for path in network.k_shortest_paths(origin, destination, 4):
            edges = network.path_edges(path)
            for _ in range(25):
                times = simulator.sample_edge_times(edges, 480,
                                                    rng=rng)
                trips.append((path, times, 480.0))
    model = EdgeCentricModel(n_bins=25).fit(trips)
    return network, model, od_pairs


def bench_route_many(network, model, od_pairs):
    """Phase 3: end-to-end full vs ``reduction=`` router."""
    full_router = StochasticRouter(network, model,
                                   n_candidates=ROUTE_CANDIDATES)
    reduced_router = StochasticRouter(network, model,
                                      n_candidates=ROUTE_CANDIDATES,
                                      reduction=ROUTE_REDUCTION)
    utilities = [DeadlineUtility(d)
                 for d in np.linspace(18.0, 40.0, 4 if SMALL else 12)]
    utilities += [RiskAverseUtility(aversion=a, scale=10.0)
                  for a in (0.1, 0.3, 0.5)]
    queries = [(origin, destination, 480.0 + minute)
               for origin, destination in od_pairs
               for minute in range(3)]

    def drive(router):
        answers = []
        for utility in utilities:
            answers.extend(router.route_many(queries, utility))
        return answers

    drive(full_router)       # warm path + distribution memos
    drive(reduced_router)    # ... and the reduction memo
    start = time.perf_counter()
    full_answers = drive(full_router)
    full_s = time.perf_counter() - start
    start = time.perf_counter()
    reduced_answers = drive(reduced_router)
    reduced_s = time.perf_counter() - start

    regrets = [abs(full_value - reduced_value)
               for (_, _, full_value), (_, _, reduced_value)
               in zip(full_answers, reduced_answers)]
    winners_match = sum(
        full_path == reduced_path
        for (full_path, _, _), (reduced_path, _, _)
        in zip(full_answers, reduced_answers))
    info = reduced_router.cache_info()
    return {
        "phase": "route_many",
        "n_candidates": ROUTE_CANDIDATES,
        "reduction": ROUTE_REDUCTION,
        "n_queries": len(queries) * len(utilities),
        "full_s": round(full_s, 4),
        "reduced_s": round(reduced_s, 4),
        "speedup": round(full_s / max(reduced_s, 1e-12), 2),
        "max_value_regret": float(max(regrets)),
        "winners_matched": int(winners_match),
        "reduction_memo_size": info["reduction_memo_size"],
    }


def bench_exports(trajectories):
    """Phase 4: fan-chart / rank-plot export data for the artifact."""
    chart = fan_chart(trajectories)
    ranks = rank_plot(trajectories)
    medians = chart["bands"]["0.5"]
    return {
        "phase": "exports",
        "fan_chart_quantiles": list(chart["quantiles"]),
        "fan_chart_median_mean": float(np.mean(medians)),
        "bands_monotone": bool(all(
            np.all(np.asarray(chart["bands"][f"{lo:g}"]) <=
                   np.asarray(chart["bands"][f"{hi:g}"]) + 1e-12)
            for lo, hi in zip(chart["quantiles"],
                              chart["quantiles"][1:]))),
        "rank_order_valid": bool(
            sorted(ranks["order"]) == list(range(len(trajectories)))),
    }


def run_experiment():
    rng = np.random.default_rng(7)
    ensemble = make_ensemble(N_SCENARIOS, rng)
    trajectories = make_trajectories(N_TRAJECTORIES, rng)
    network, model, od_pairs = build_world()
    with use_registry() as registry:
        results = {
            "kernels": [
                bench_wasserstein_kernel(ensemble, rng),
                bench_dtw_kernel(trajectories),
                bench_selection_oracle(ensemble, rng),
            ],
            "select_best": bench_select_best(ensemble),
            "route_many": bench_route_many(network, model, od_pairs),
            "exports": bench_exports(trajectories),
        }
        snapshot = registry.snapshot()
    reduced_counter = snapshot.get("decision.reduction_scenarios_total")
    results["metrics_series"] = (
        len(reduced_counter["series"]) if reduced_counter else 0)
    return results


def emit_trajectory(results):
    payload = {
        "experiment": "e29_scenario_reduction",
        "scale": SCALE,
        "select_target_speedup": SELECT_TARGET_SPEEDUP,
        "distortion_bound": DISTORTION_BOUND,
        **results,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2,
                                        sort_keys=True) + "\n")
    return payload


@pytest.mark.benchmark(group="e29")
def test_e29_scenario_reduction(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    select = results["select_best"]
    route = results["route_many"]
    print_table(
        "E29: scenario reduction (kernels)",
        [{k: row.get(k) for k in ("kernel", "n", "reference_s",
                                  "kernel_s", "speedup", "equivalent")}
         for row in results["kernels"]],
    )
    print_table(
        "E29: k<<N decisions, full vs reduced",
        [{k: phase.get(k) for k in
          ("phase", "n_queries", "full_s", "reduced_s", "speedup",
           "max_value_regret", "winners_matched")}
         for phase in (select, route)],
    )
    payload = emit_trajectory(results)
    assert ARTIFACT_PATH.exists()

    # Correctness first: every kernel matches its brute-force oracle.
    for row in results["kernels"]:
        assert row["equivalent"], f"{row['kernel']} diverged"

    # Zero decision regret, both phases: the reduced-ensemble winner's
    # expected utility equals the full-ensemble winner's exactly.
    assert select["max_value_regret"] <= REGRET_TOL, select
    assert route["max_value_regret"] <= REGRET_TOL, route

    # Bounded transport distortion for the phase-2 reduction.
    assert select["distortion"] <= DISTORTION_BOUND, select

    # The perf claims.
    assert select["speedup"] >= SELECT_TARGET_SPEEDUP, select
    assert route["speedup"] >= ROUTE_TARGET_SPEEDUP, route
    dtw_row = results["kernels"][1]
    assert dtw_row["speedup"] >= DTW_TARGET_SPEEDUP, dtw_row

    # The reduction memo actually amortizes: one entry per (OD, window),
    # not one per query.
    assert 1 <= route["reduction_memo_size"] <= route["n_queries"], route

    # Reduction metrics flowed through the registry.
    assert results["metrics_series"] >= 1, results

    # Export sanity: quantile bands are ordered, ranks are a permutation.
    exports = results["exports"]
    assert exports["bands_monotone"], exports
    assert exports["rank_order_valid"], exports
