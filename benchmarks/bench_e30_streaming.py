"""E30 — Streaming/incremental execution: ticks vs from-scratch reruns.

Claim: for a rolling-feed decision pipeline whose expensive analytics
depend on *static* inputs, ``IncrementalSession.tick`` processes the
stream >= 5x faster (events/sec) than naively re-running the whole
DAG per arrival batch — while every tick's final state stays
**byte-identical** to the from-scratch ``run()`` oracle on the same
accumulated input, on all three executor backends.

The workload is the archetypal monitoring loop: a cheap dirty cone
(ingest -> impute -> score -> act) rides on two heavy static
analytics stages (spectral embedding + ridge calibration of a fixed
history matrix) plus an append-only volume aggregate maintained by an
``incremental=`` fold.  Each tick mutates only the feed keys, so the
session replays the heavy stages from their committed deltas and
folds the aggregate instead of re-reducing the whole log.

Three phases, all gated:

1. **Equivalence** — per-tick fingerprint identity against the
   oracle for serial, thread and process backends (tombstones and
   the fold included);
2. **Throughput** — events/sec incremental vs naive on the serial
   backend, >= 5x at full scale;
3. **Accounting** — ``engine.ticks_total`` / ``tick_stages_total``
   reconcile with the reports (replays actually happened, folds
   actually folded).

``BENCH_E30_SCALE=small`` shrinks the workload for CI smoke runs
(equivalence and accounting gates stay exact; the 5x floor applies
at full scale only).  Results go to ``BENCH_e30.json``.
"""

import json
import os
import pathlib
import time

import numpy as np
import pytest

from conftest import print_table

from repro import DecisionPipeline
from repro.benchmarking import summarize_latencies
from repro.core import ProcessExecutor
from repro.core.cache import fingerprint
from repro.observability import MetricsRegistry

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_e30.json"

SCALE = os.environ.get("BENCH_E30_SCALE", "full").strip().lower()
SMALL = SCALE == "small"

MATRIX_N = 96 if SMALL else 288          # static history matrix
WINDOW = 128 if SMALL else 512           # feed events per tick
N_TICKS = 8 if SMALL else 30
EQUIVALENCE_TICKS = 4 if SMALL else 6    # oracle-checked ticks/backend
TARGET_SPEEDUP = 1.0 if SMALL else 5.0


# -- stage functions (module-level: picklable for the process pool) ----------


def st_history(view):
    """Deterministic history matrix from the static base seed."""
    base = int(view["base"])
    n = int(view["matrix_n"])
    grid = np.arange(n, dtype=np.float64)
    matrix = np.cos(np.outer(grid + base, grid + 1.0) / n)
    view["matrix"] = matrix + np.eye(n) * n
    return "history"


def st_embed(view):
    """Heavy static analytics #1: spectral embedding of the history."""
    matrix = view["matrix"]
    values, vectors = np.linalg.eigh(matrix @ matrix.T)
    view["embedding"] = vectors[:, -8:] * values[-8:]
    return "embedded"


def st_calibrate(view):
    """Heavy static analytics #2: ridge calibration against history."""
    matrix = view["matrix"]
    gram = matrix.T @ matrix + np.eye(matrix.shape[1])
    view["model"] = np.linalg.solve(gram, matrix.T.sum(axis=1))
    return "calibrated"


def st_ingest(view):
    view["window"] = np.asarray(view["feed"], dtype=np.float64)
    return "ingested", {"events": int(len(view["feed"]))}


def st_impute(view):
    """Cheap per-tick governance: LOCF over the tick's window."""
    window = view["window"].copy()
    carry = 0.0
    for index in range(len(window)):
        if np.isnan(window[index]):
            window[index] = carry
        else:
            carry = window[index]
    view["clean"] = window
    return "imputed"


def st_aggregate_full(view):
    """From-scratch form of the fold: totals over the whole log."""
    log = view["feed_log"]
    view["rows_seen"] = len(log)
    view["total_volume"] = float(sum(log))
    return "aggregated"


def st_aggregate_fold(view, tick):
    """Fold form: add only the suffix that arrived since last tick.

    Accumulates element-wise so the float additions associate exactly
    as the from-scratch ``sum`` does — byte-identity demands fold
    discipline down to rounding order.
    """
    log = view["feed_log"]
    total = view["total_volume"]
    for value in log[view["rows_seen"]:]:
        total += value
    view["total_volume"] = float(total)
    view["rows_seen"] = len(log)
    return "folded"


def st_score(view):
    clean = view["clean"]
    weights = np.resize(view["model"], clean.shape)
    basis = np.resize(view["embedding"][:, -1], clean.shape)
    view["scores"] = clean * weights + basis
    return "scored"


def st_act(view):
    scores = view["scores"]
    view["action"] = ("shed" if float(scores.mean()) >
                      float(np.median(scores)) else "hold")
    view["peak"] = int(np.argmax(scores))
    return "acted"


def build_pipeline():
    pipeline = DecisionPipeline("e30 streaming")
    pipeline.add_data("history", st_history,
                      reads=("base", "matrix_n"), writes=("matrix",))
    pipeline.add_data("ingest", st_ingest,
                      reads=("feed",), writes=("window",))
    pipeline.add_governance("impute", st_impute,
                            reads=("window",), writes=("clean",))
    pipeline.add_analytics("embed", st_embed,
                           reads=("matrix",), writes=("embedding",))
    pipeline.add_analytics("calibrate", st_calibrate,
                           reads=("matrix",), writes=("model",))
    pipeline.add_analytics("aggregate", st_aggregate_full,
                           reads=("feed_log",),
                           writes=("total_volume", "rows_seen"),
                           incremental=st_aggregate_fold)
    pipeline.add_analytics("score", st_score,
                           reads=("clean", "embedding", "model"),
                           writes=("scores",))
    pipeline.add_decision("act", st_act,
                          reads=("scores",),
                          writes=("action", "peak"))
    return pipeline


def make_feed(rng, n):
    """One tick's arrivals: a noisy diurnal ramp with sensor gaps."""
    feed = np.abs(rng.normal(10.0, 3.0, n))
    feed[rng.random(n) < 0.08] = np.nan
    return feed


def tick_mutation(rng, log):
    feed = make_feed(rng, WINDOW)
    log.extend(float(x) for x in np.nan_to_num(feed))
    return {"feed": feed, "feed_log": list(log)}


def initial_state(log):
    return {"base": 3, "matrix_n": MATRIX_N,
            "feed": np.zeros(WINDOW), "feed_log": list(log)}


def bench_equivalence(backend_name, executor):
    """Phase 1: per-tick byte-identity against the oracle."""
    rng = np.random.default_rng(42)
    pipeline = build_pipeline()
    log = []
    session = pipeline.stream(initial_state(log), executor=executor)
    identical = 0
    replays = 0
    for _ in range(EQUIVALENCE_TICKS):
        state, report = session.tick(changed=tick_mutation(rng, log))
        oracle, _ = pipeline.run(session.input_state,
                                 executor=executor)
        identical += fingerprint(state) == fingerprint(oracle)
        replays += report.cache_hits
    return {
        "backend": backend_name,
        "ticks": EQUIVALENCE_TICKS,
        "identical": identical,
        "replayed_stages": replays,
    }


def bench_throughput():
    """Phase 2: events/sec, incremental ticks vs naive reruns."""
    rng = np.random.default_rng(7)
    pipeline = build_pipeline()
    registry = MetricsRegistry()
    log = []
    session = pipeline.stream(initial_state(log), executor="serial",
                              metrics=registry)
    session.tick()  # warm-up: populate every delta
    mutations = [tick_mutation(rng, log) for _ in range(N_TICKS)]

    tick_latencies = []
    start = time.perf_counter()
    for changed in mutations:
        t0 = time.perf_counter()
        session.tick(changed=changed)
        tick_latencies.append(time.perf_counter() - t0)
    incremental_s = time.perf_counter() - start

    # The naive baseline replays the same mutation stream through
    # from-scratch runs on the identical accumulated inputs.
    naive_latencies = []
    state = initial_state([])
    start = time.perf_counter()
    for changed in mutations:
        state.update(changed)
        t0 = time.perf_counter()
        naive_state, _ = pipeline.run(state, executor="serial")
        naive_latencies.append(time.perf_counter() - t0)
    naive_s = time.perf_counter() - start

    assert fingerprint(session.state) == fingerprint(naive_state)
    events = N_TICKS * WINDOW
    ticks = registry.counter("engine.ticks_total")
    stages = registry.counter("engine.tick_stages_total")
    return {
        "n_ticks": N_TICKS,
        "events_per_tick": WINDOW,
        "incremental_s": round(incremental_s, 4),
        "naive_s": round(naive_s, 4),
        "incremental_events_per_s": round(events / incremental_s, 1),
        "naive_events_per_s": round(events / naive_s, 1),
        "speedup": round(naive_s / max(incremental_s, 1e-12), 2),
        "ticks_ok": ticks.value(status="ok"),
        "stages_replayed": stages.value(disposition="replayed"),
        "stages_incremental": stages.value(disposition="incremental"),
        "stages_executed": stages.value(disposition="executed"),
        "tick_latency": summarize_latencies(tick_latencies),
        "naive_latency": summarize_latencies(naive_latencies),
    }


def run_experiment():
    process_pool = ProcessExecutor(max_workers=2)
    try:
        equivalence = [
            bench_equivalence("serial", "serial"),
            bench_equivalence("thread", "thread"),
            bench_equivalence("process", process_pool),
        ]
    finally:
        process_pool.close()
    return {
        "equivalence": equivalence,
        "throughput": bench_throughput(),
    }


def emit_trajectory(results):
    payload = {
        "experiment": "e30_streaming",
        "scale": SCALE,
        "target_speedup": TARGET_SPEEDUP,
        **results,
    }
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2,
                                        sort_keys=True) + "\n")
    return payload


@pytest.mark.benchmark(group="e30")
def test_e30_streaming(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1,
                                 iterations=1)
    throughput = results["throughput"]
    print_table("E30: per-tick oracle equivalence",
                results["equivalence"])
    print_table(
        "E30: incremental ticks vs naive reruns",
        [{key: throughput.get(key) for key in
          ("n_ticks", "incremental_s", "naive_s",
           "incremental_events_per_s", "naive_events_per_s",
           "speedup")}],
    )
    emit_trajectory(results)
    assert ARTIFACT_PATH.exists()

    # Correctness first: every tick on every backend is byte-identical
    # to the from-scratch oracle, and replays actually happened.
    for row in results["equivalence"]:
        assert row["identical"] == row["ticks"], row
        assert row["replayed_stages"] > 0, row

    # The perf claim: the incremental path clears the events/sec floor.
    assert throughput["speedup"] >= TARGET_SPEEDUP, throughput

    # Metrics reconcile with the run: every tick ok (plus warm-up),
    # heavy stages replayed, the aggregate folded every tick.
    assert throughput["ticks_ok"] == N_TICKS + 1, throughput
    assert throughput["stages_replayed"] >= 3 * N_TICKS, throughput
    assert throughput["stages_incremental"] == N_TICKS, throughput
