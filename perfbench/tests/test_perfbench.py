"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench/tests -q

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
The smoke runs take a few minutes: every workload runs end to end,
untraced and traced.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import serving, taxi  # noqa: E402
from perfbench.measure import digest, tail  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(workload, trace, *, seed=3, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in spec}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("serve-route", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- correctness gates --------------------------------------------------------

def test_wrong_served_answer_counts_as_failed(monkeypatch):
    workload = serving.ServeRoute(5, SpanRecorder())
    try:
        workload.warm_up()
        assert workload.check() == (workload.warm_attempted, 0)
        network = workload.server.network
        real = network.dijkstra_array
        monkeypatch.setattr(
            network, "dijkstra_array",
            lambda source, **options: real(source, **options) + 1.0)
        # A 64-query burst holds both route and distance queries; only
        # the distance answers are wrong.
        _, latencies, failed = workload.step()
        assert 0 < failed < len(latencies)
    finally:
        workload.close()


def test_every_served_request_has_its_resolution_time():
    workload = serving.ServeRoute(6, SpanRecorder())
    try:
        workload.warm_up()
        for _ in range(20):
            _, latencies, failed = workload.step()
            assert failed == 0
            assert all(0 < latency < 60 for latency in latencies)
    finally:
        workload.close()


def test_taxi_copy_that_drifts_from_the_example_fails_the_gate(
        monkeypatch):
    workload = taxi.TaxiBatch(2, SpanRecorder())
    monkeypatch.setattr(workload.scenario, "rng",
                        lambda k: np.random.default_rng(k + 40))
    workload.warm_up()
    assert workload.check() == (1, 1)


def test_replayed_ticks_match_from_scratch_runs():
    workload = taxi.TaxiReplan(4, SpanRecorder())
    workload.warm_up()
    for _ in range(2):
        assert workload.step()[2] == 0
    # The first and middle ticks share window 1; the last is window 2.
    assert workload.check() == (2, 0)


def test_replan_tick_that_differs_from_its_window_fails():
    workload = taxi.TaxiReplan(4, SpanRecorder())
    workload.warm_up()
    workload.digests[1] = "a different answer"
    assert workload.step()[2] == 1
    assert workload.step()[2] == 0
    assert workload.check() == (2, 1)


# -- generated inputs ---------------------------------------------------------

def _burst_digest(workload, bursts=3):
    return digest([[query for _, query, _ in workload.draw()]
                   for _ in range(bursts)])


def test_same_seed_generates_identical_inputs():
    first = serving.ServeRoute(11, SpanRecorder())
    again = serving.ServeRoute(11, SpanRecorder())
    other = serving.ServeRoute(12, SpanRecorder())
    try:
        assert _burst_digest(first) == _burst_digest(again)
        assert _burst_digest(first) != _burst_digest(other)
    finally:
        for workload in (first, again, other):
            workload.close()
    pools = [taxi.TaxiScenario(seed, SpanRecorder()).observation_pool()
             for seed in (7, 7, 8)]
    assert digest(pools[0]) == digest(pools[1]) != digest(pools[2])


def test_program_receives_only_generated_inputs():
    workload = taxi.TaxiReplan(9, SpanRecorder())
    assert set(workload.inputs(3)) == {"window", "departure"}
    served = serving.ServeRoute(9, SpanRecorder())
    try:
        assert {type(query).__name__
                for entries in served.pool.values()
                for query, _ in entries} == {"RouteQuery", "DistanceQuery"}
    finally:
        served.close()


# -- summaries and spans ------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert tail(samples, 0.99) == pytest.approx(np.percentile(samples, 99))
    assert tail(samples[:50], 0.99) == pytest.approx(
        np.percentile(samples[:50], 80))
    assert tail(samples[:8], 0.99) == pytest.approx(
        np.percentile(samples[:8], 50))


def test_self_times_subtract_the_union_of_children():
    probe = SpanRecorder(enabled=True)
    root = probe.add("op", "core", 0.0, 10.0)
    first = probe.add("a", "fusion", 1.0, 4.0, parent=root)
    probe.add("a.inner", "datatypes", 1.0, 2.0, parent=first)
    probe.add("b", "decision", 3.0, 6.0, parent=root)
    assert probe.self_times() == pytest.approx([5.0, 2.0, 1.0, 3.0])
    summary = probe.rollup()["op"]
    assert summary["untimed_ms"] == pytest.approx(5000.0)
    assert summary["untimed_pct"] == pytest.approx(50.0)
    assert summary["layers_ms"] == pytest.approx(
        {"fusion": 2000.0, "datatypes": 1000.0, "decision": 3000.0})


def test_spans_on_other_threads_join_the_current_op():
    probe = SpanRecorder(enabled=True)

    def stage():
        with probe.span("stage", "bench"):
            pass

    with probe.op("op", "core") as root:
        worker = threading.Thread(target=stage)
        worker.start()
        worker.join(timeout=10)
        with probe.span("call", "fusion"):
            probe.count("points", 3)
    assert not worker.is_alive()
    assert [span[4] for span in probe.spans] == [None, root, root]
    assert probe.op_counts("points", [root]) == [3]
