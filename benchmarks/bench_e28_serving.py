"""E28 — Serving layer: sustained qps at a fixed p99 SLO.

Claim: the embedded :class:`DecisionServer` turns the library's batch
APIs into an online service without giving anything up — batched
answers stay *exactly* equal to direct single-call oracles, a
closed-loop fleet sustains its throughput with client-observed p99
inside the SLO, and when offered load exceeds capacity the server
sheds the excess as typed ``Overloaded`` results instead of letting
queues (and tail latency) grow without bound.

Three phases, all gated:

1. **Equivalence** — every op through the server matches the direct
   router / matcher / network call (value-for-value, arrays byte
   compared).
2. **Sustained load** — a closed-loop fleet at moderate concurrency;
   asserts p99 <= SLO and zero sheds, records qps.
3. **Overload** — a larger fleet against a tiny admission queue;
   asserts the server sheds (typed, not errors) and the survivors
   still meet the SLO.

Results go to ``BENCH_e28.json`` next to the other artifacts for CI
trend tracking.
"""

import json
import pathlib

import numpy as np
import pytest

from conftest import print_table

from repro import RoadNetwork
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import StochasticRouter
from repro.decision.utility import DeadlineUtility
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import EdgeCentricModel
from repro.observability.metrics import use_registry
from repro.serve import (
    DecisionServer,
    DistanceQuery,
    MatchQuery,
    RouteQuery,
)
from tests.loadgen import closed_loop

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_e28.json"

#: Client-observed p99 ceiling for the sustained phase (seconds).
#: Generous for CI boxes — the point is the *gate*, not the number;
#: the artifact records the observed p99 for trend tracking.
SLO_P99 = 0.25

#: Closed-loop fleet sizes.
SUSTAINED_CLIENTS = 8
OVERLOAD_CLIENTS = 16

#: Seconds per measured phase.
PHASE_SECONDS = 2.0


def build_world():
    network = RoadNetwork.grid(6, 6)
    simulator = TrafficSimulator(network,
                                 rng=np.random.default_rng(0))
    generator = TrajectoryGenerator(simulator,
                                    rng=np.random.default_rng(1))
    trips_xy = generator.generate(8, noise_sigma=0.1,
                                  sample_interval=0.5, min_hops=4)
    trajectories = [trajectory for _, trajectory in trips_xy]
    od_pairs = [((0, 0), (5, 5)), ((0, 5), (5, 0)), ((3, 0), (3, 5)),
                ((0, 2), (5, 2))]
    # Fit the cost model over the k-shortest candidate paths of the
    # benchmark's own OD pairs (as E19 does) so every route query has
    # covered candidates and a non-degenerate distribution.
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
    return network, model, od_pairs, trajectories


def make_backends(network, model):
    router = StochasticRouter(network, model, n_candidates=4)
    matcher = HmmMapMatcher(network, sigma=0.12, beta=0.5)
    return router, matcher


def gate_equivalence(server, network, model, od_pairs, trajectories):
    """Phase 1: batched serving == direct single-call oracles."""
    oracle_router, oracle_matcher = make_backends(network, model)
    utility = DeadlineUtility(12.0)
    checked = 0
    for origin, destination in od_pairs:
        served = server.route(origin, destination,
                              departure_minute=480.0)
        assert served.ok, served.error
        direct = oracle_router.route_many(
            [(origin, destination, 480.0)], utility)[0]
        assert (served.value is None) == (direct is None)
        if direct is not None:
            assert served.value[0] == direct[0]
            np.testing.assert_array_equal(served.value[1].support,
                                          direct[1].support)
            np.testing.assert_array_equal(
                served.value[1].probabilities,
                direct[1].probabilities)
            assert served.value[2] == direct[2]
        checked += 1
    for trajectory in trajectories:
        served = server.match(trajectory)
        assert served.ok, served.error
        assert served.value == oracle_matcher.match(trajectory)
        checked += 1
    for origin, _ in od_pairs:
        served = server.distances(origin, cutoff=5.0)
        assert served.ok, served.error
        np.testing.assert_array_equal(
            served.value, network.dijkstra_array(origin, cutoff=5.0))
        checked += 1
    return checked


def make_query_mix(od_pairs, trajectories):
    def make_query(client, iteration):
        tick = client + iteration
        kind = tick % 3
        pair = od_pairs[tick % len(od_pairs)]
        if kind == 0:
            return RouteQuery(pair[0], pair[1], 480.0)
        if kind == 1:
            return MatchQuery(trajectories[tick % len(trajectories)])
        return DistanceQuery(pair[0], cutoff=5.0)
    return make_query


def warm(server, make_query):
    """Serve each query kind once so the measured phases see warm
    caches and a steady-state service-time EWMA, not cold-start
    compute (which would both fatten the p99 tail and poison the
    doomed-shedding estimate)."""
    for tick in range(24):
        result = server.submit(make_query(0, tick)).result()
        assert result.ok, result.error


def run_experiment():
    network, model, od_pairs, trajectories = build_world()
    make_query = make_query_mix(od_pairs, trajectories)
    utility = DeadlineUtility(12.0)

    with use_registry() as registry:
        router, matcher = make_backends(network, model)
        with DecisionServer(router=router, matcher=matcher,
                            network=network, utility=utility,
                            max_queue=256,
                            batch_window=0.002) as server:
            equivalence_checks = gate_equivalence(
                server, network, model, od_pairs, trajectories)
            warm(server, make_query)
            sustained = closed_loop(server, make_query,
                                    n_clients=SUSTAINED_CLIENTS,
                                    duration=PHASE_SECONDS)
            stats = server.stats()
        histogram = registry.get("serve.latency_seconds")
        server_p99 = max(
            (histogram.quantile(0.99, op=op) or 0.0)
            for op in ("route", "match", "distances"))
        batch_hist = registry.get("serve.batch_size")
        batch_count = batch_hist.total_count()
        batch_sum = sum(batch_hist.sum(op=op)
                        for op in ("route", "match", "distances"))
        mean_batch = batch_sum / batch_count if batch_count else 0.0

    # Overload phase: its own server with a tiny admission queue so
    # the 16-client fleet reliably exceeds capacity and gets shed.
    router, matcher = make_backends(network, model)
    with DecisionServer(router=router, matcher=matcher,
                        network=network, utility=utility,
                        max_queue=2, batch_window=0.0) as server:
        warm(server, make_query)
        overload = closed_loop(server, make_query,
                               n_clients=OVERLOAD_CLIENTS,
                               duration=PHASE_SECONDS,
                               deadline=SLO_P99)

    return {
        "equivalence_checks": equivalence_checks,
        "sustained": sustained,
        "overload": overload,
        "server_stats": stats,
        "server_p99_estimate": server_p99,
        "mean_batch": mean_batch,
    }


def emit_trajectory(results):
    payload = {
        "experiment": "e28_serving",
        "slo_p99_seconds": SLO_P99,
        "equivalence_checks": results["equivalence_checks"],
        "sustained": results["sustained"].to_dict(),
        "overload": results["overload"].to_dict(),
        "server_p99_estimate": results["server_p99_estimate"],
        "mean_batch": results["mean_batch"],
        "batches": results["server_stats"]["batches"],
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2,
                                        sort_keys=True) + "\n")
    return payload


@pytest.mark.benchmark(group="e28")
def test_e28_serving(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1,
                                 iterations=1)
    payload = emit_trajectory(results)
    sustained, overload = results["sustained"], results["overload"]
    print_table(
        f"E28: closed-loop serving (SLO p99 <= {SLO_P99}s)",
        [{
            "phase": name,
            "clients": report.n_clients,
            "qps": report.qps,
            "p50_ms": report.latency_p50 * 1e3,
            "p99_ms": report.latency_p99 * 1e3,
            "shed_rate": report.shed_rate,
        } for name, report in (("sustained", sustained),
                               ("overload", overload))],
    )
    assert ARTIFACT_PATH.exists()

    # Phase 1 gate: every op checked, value-for-value.
    assert results["equivalence_checks"] >= 16

    # Phase 2 gate: the fleet sustains throughput inside the SLO
    # without shedding, and requests actually coalesced into batches.
    assert sustained.qps > 0
    assert sustained.latency_p99 <= SLO_P99, (
        f"sustained p99 {sustained.latency_p99 * 1e3:.1f}ms over "
        f"{SLO_P99 * 1e3:.0f}ms SLO")
    assert sustained.outcomes.get("overloaded", 0) == 0
    assert payload["mean_batch"] >= 1.0

    # The server's bucketed p99 estimate should be the same order of
    # magnitude as the exact client-side percentile (loose: bucket
    # estimation plus queue-time asymmetry).
    assert results["server_p99_estimate"] <= max(
        10 * sustained.latency_p99, 0.5)

    # Phase 3 gate: overload is shed as *typed* results — no errors,
    # a nonzero shed rate, and the admitted survivors stay healthy.
    assert overload.shed_rate > 0.0, overload.outcomes
    assert overload.outcomes.get("error", 0) == 0
    assert overload.outcomes.get("ok", 0) > 0
