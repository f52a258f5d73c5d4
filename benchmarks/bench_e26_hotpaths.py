"""E26 — Hot-path kernels: spatial index, batched Viterbi, dominance.

Claim: the governance→decision query path (GPS point → candidate edges
→ Viterbi match → path distribution → dominance prune → route choice)
is served by index-backed, vectorized kernels that return *identical*
results to the brute-force implementations they replaced, at a large
speedup:

* ``candidate_edges`` via the uniform-grid spatial index versus the
  O(E) linear scan; ``nearest_node`` is itself a vectorized O(V) scan,
  not grid-indexed, so only its equivalence to the brute-force scan
  is asserted;
* batched vectorized Viterbi with bounded, LRU-cached Dijkstra versus
  the per-pair pure-Python loop with exhaustive searches;
* the matrix ``dominance_prune`` kernel versus k² independent pairwise
  dominance calls;
* ``RoadNetwork.k_shortest_paths`` (Yen over the integer adjacency)
  versus networkx's ``shortest_simple_paths``, reported with no floor.

Every timed comparison *asserts* kernel-vs-reference equivalence, so a
fast-but-wrong kernel fails the benchmark, and the speedups are written
to ``BENCH_e26.json`` for CI trend tracking next to ``BENCH_e01.json``.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from conftest import print_table

from repro import RoadNetwork
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision.stochastic import dominance_prune
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import Histogram
from tests.oracles import (
    _dominance_prune_pairwise,
    candidate_edges_scan,
    k_shortest_reference,
    match_reference,
    nearest_node_scan,
)

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_e26.json"

#: Acceptance floor: at least two of the three kernels this fast.
TARGET_SPEEDUP = 5.0


def _timed(function):
    begin = time.perf_counter()
    result = function()
    return result, time.perf_counter() - begin


def bench_candidate_lookup(n_queries=120):
    """Grid-index candidate lookup vs. linear scan on a 2k+ edge net."""
    network = RoadNetwork.grid(24, 24)  # 2208 directed edges
    assert network.n_edges >= 2000
    rng = np.random.default_rng(0)
    queries = [
        (tuple(rng.uniform(-0.5, 23.5, 2)), float(rng.uniform(0.3, 1.2)))
        for _ in range(n_queries)
    ]
    network.candidate_edges(*queries[0])  # build the index up front

    indexed, indexed_s = _timed(lambda: [
        network.candidate_edges(point, radius)
        for point, radius in queries
    ])
    scanned, scan_s = _timed(lambda: [
        candidate_edges_scan(network, point, radius)
        for point, radius in queries
    ])
    equivalent = all(
        {c[:2] for c in fast} == {c[:2] for c in slow}
        and np.allclose(sorted(c[2] for c in fast),
                        sorted(c[2] for c in slow), atol=1e-9)
        for fast, slow in zip(indexed, scanned)
    )
    nearest_equivalent = all(
        network.nearest_node(point) == nearest_node_scan(network, point)
        for point, _ in queries
    )
    return {
        "kernel": "candidate_lookup",
        "n_edges": network.n_edges,
        "n_queries": n_queries,
        "reference_s": scan_s,
        "kernel_s": indexed_s,
        "speedup": scan_s / indexed_s,
        "equivalent": bool(equivalent and nearest_equivalent),
    }


def bench_viterbi_batch(n_trajectories=12):
    """match_many (vectorized, bounded+cached Dijkstra) vs. the
    per-pair pure-Python Viterbi with exhaustive searches.

    The network is sized so the bounded search radius actually bounds:
    on a city-scale graph the reference's exhaustive single-source
    searches touch every node while the kernel's stay local.
    """
    network = RoadNetwork.grid(26, 26)
    simulator = TrafficSimulator(network, rng=np.random.default_rng(0))
    generator = TrajectoryGenerator(simulator,
                                    rng=np.random.default_rng(1))
    trips = generator.generate(n_trajectories, noise_sigma=0.12,
                               sample_interval=0.4, min_hops=8)
    trajectories = [trajectory for _, trajectory in trips]

    # beta_cutoff=15 is the serving configuration: transitions whose
    # detour exceeds 15 betas (log-probability < -15) are treated as
    # unreachable, so each search stays local.  Equivalence with the
    # unbounded reference is asserted below, in the same run.
    matcher = HmmMapMatcher(network, sigma=0.15, beta=0.5,
                            candidate_radius=1.0, beta_cutoff=15.0)
    reference = HmmMapMatcher(network, sigma=0.15, beta=0.5,
                              candidate_radius=1.0, beta_cutoff=None)

    batched, batch_s = _timed(lambda: matcher.match_many(trajectories))

    def run_reference():
        results = []
        for trajectory in trajectories:
            reference.clear_cache()  # per-query serving: cold cache
            results.append(match_reference(reference, trajectory))
        return results

    looped, loop_s = _timed(run_reference)
    return {
        "kernel": "viterbi_batch",
        "n_trajectories": n_trajectories,
        "n_points": sum(len(t) for t in trajectories),
        "reference_s": loop_s,
        "kernel_s": batch_s,
        "speedup": loop_s / batch_s,
        "equivalent": batched == looped,
        "cache": matcher.cache_info(),
    }


def bench_dominance_kernel(k=64, order=1):
    """Matrix dominance_prune vs. k² pairwise dominance calls.

    The workload is the realistic hard case: candidate routes between
    one OD pair have heavily *overlapping* cost distributions (similar
    means, varied spreads), so few candidates are dominated and the
    pairwise reference cannot early-exit — it pays close to the full k²
    dominance calls, exactly when pruning cost matters most.
    """
    rng = np.random.default_rng(5)
    candidates = []
    for _ in range(k):
        mean = rng.uniform(9.0, 11.0)
        std = rng.uniform(0.3, 2.5)
        candidates.append(Histogram.from_samples(
            rng.normal(mean, std, 250), n_bins=25))

    matrix, matrix_s = _timed(
        lambda: dominance_prune(candidates, order=order))
    pairwise, pairwise_s = _timed(
        lambda: _dominance_prune_pairwise(candidates, order=order))
    return {
        "kernel": f"dominance_prune_order{order}",
        "k": k,
        "n_survivors": len(matrix),
        "reference_s": pairwise_s,
        "kernel_s": matrix_s,
        "speedup": pairwise_s / matrix_s,
        "equivalent": matrix == pairwise,
    }


def bench_k_shortest(k=8, n_pairs=24):
    """Yen over the integer adjacency vs. networkx's Yen.

    The replan tick's query (the 6x6 grid's corner to corner, where
    hundreds of routes tie) and random OD pairs on a random geometric
    network, each answered by both; the row reports the ratio and
    asserts the paths are identical.
    """
    grid = RoadNetwork.grid(6, 6)
    geometric = RoadNetwork.random_geometric(
        150, 1.6, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    nodes = geometric.nodes()
    queries = [(grid, (0, 0), (5, 5))] + [
        (geometric, *(nodes[i] for i in rng.choice(len(nodes), 2,
                                                   replace=False)))
        for _ in range(n_pairs)
    ]
    for network, source, target in queries[:2]:  # build the snapshots
        network.k_shortest_paths(source, target, k)
    ported, ported_s = _timed(lambda: [
        network.k_shortest_paths(source, target, k)
        for network, source, target in queries
    ])
    reference, reference_s = _timed(lambda: [
        k_shortest_reference(network, source, target, k)
        for network, source, target in queries
    ])
    return {
        "kernel": "k_shortest",
        "n_edges": grid.n_edges + geometric.n_edges,
        "n_queries": len(queries),
        "reference_s": reference_s,
        "kernel_s": ported_s,
        "speedup": reference_s / ported_s,
        "equivalent": ported == reference,
    }


def run_experiment():
    return [
        bench_candidate_lookup(),
        bench_viterbi_batch(),
        bench_dominance_kernel(order=1),
        bench_dominance_kernel(order=2),
        bench_k_shortest(),
    ]


def emit_trajectory(rows):
    """Write the kernel speedups as a CI-uploadable JSON artifact."""
    payload = {
        "experiment": "e26_hotpath_kernels",
        "target_speedup": TARGET_SPEEDUP,
        "kernels": rows,
        "all_equivalent": all(row["equivalent"] for row in rows),
        "n_kernels_at_target": sum(
            row["speedup"] >= TARGET_SPEEDUP for row in rows),
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2,
                                        sort_keys=True) + "\n")
    return payload


@pytest.mark.benchmark(group="e26")
def test_e26_hotpath_kernels(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        "E26: hot-path kernels vs. brute-force references",
        [{
            "kernel": row["kernel"],
            "workload": row.get("n_edges") or row.get("n_points")
            or row.get("k"),
            "reference_s": row["reference_s"],
            "kernel_s": row["kernel_s"],
            "speedup": row["speedup"],
            "equivalent": row["equivalent"],
        } for row in rows],
    )
    payload = emit_trajectory(rows)
    assert ARTIFACT_PATH.exists()
    # Correctness first: every kernel must agree with its reference.
    for row in rows:
        assert row["equivalent"], f"{row['kernel']} diverged"
    # The perf claim: at least two of the three kernel families beat
    # the 5x floor (the two dominance orders count once; k_shortest
    # is reported, not gated).
    family_speedups = {
        "candidate_lookup": rows[0]["speedup"],
        "viterbi_batch": rows[1]["speedup"],
        "dominance_prune": max(rows[2]["speedup"], rows[3]["speedup"]),
    }
    at_target = [name for name, speedup in family_speedups.items()
                 if speedup >= TARGET_SPEEDUP]
    assert len(at_target) >= 2, family_speedups
    # The batched matcher's shared cache must actually be hit.
    assert rows[1]["cache"]["hits"] > 0
