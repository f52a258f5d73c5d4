"""Observability layer: metrics, span tracing, profiling and the CLI.

Covers the four guarantees the layer makes:

* the :class:`MetricsRegistry` is exact — concurrent increments are
  never lost, label series never collide, snapshots are JSON-ready;
* the :class:`SpanTracer` folds the engine's event stream into the
  documented span tree, pinned by a golden-trace fixture
  (``tests/fixtures/golden_trace.json``) so any schema drift in the
  event stream or span folding fails loudly;
* ``profile=True`` attaches per-stage wall/CPU/memory/queue-wait
  numbers to the run report;
* ``python -m repro.trace`` exports valid ``chrome://tracing`` JSON.

Regenerate the golden fixture after an *intentional* schema change::

    PYTHONPATH=src python tests/test_observability.py --regen
"""

import json
import os
import threading
import time
import tracemalloc

import pytest

from repro import (
    DecisionPipeline,
    FaultInjector,
    ProcessExecutor,
    RunDeadlineExceeded,
    StageCache,
    StageFailure,
)
from repro.core.events import EVENT_KINDS
from repro.observability import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    SpanTracer,
    TeeTracer,
)
from repro.observability.metrics import (
    get_registry,
    set_registry,
    use_registry,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_trace.json")


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c", "c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter("hits", "hits")
        counter.inc(stage="a")
        counter.inc(3, stage="b")
        assert counter.value(stage="a") == pytest.approx(1.0)
        assert counter.value(stage="b") == pytest.approx(3.0)
        assert counter.total() == pytest.approx(4.0)

    def test_label_order_is_irrelevant(self):
        counter = MetricsRegistry().counter("c", "c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(b="2", a="1") == pytest.approx(2.0)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "queue depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == pytest.approx(12.0)

    def test_histogram_buckets_and_stats(self):
        histogram = MetricsRegistry().histogram(
            "latency", "latency", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        series = histogram._snapshot_series()[0]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(55.55)
        assert series["min"] == pytest.approx(0.05)
        assert series["max"] == pytest.approx(50.0)
        # one observation per bucket, including the implicit +inf
        assert series["bucket_counts"] == [1, 1, 1, 1]

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", "h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("h2", "h2", buckets=())

    def test_histogram_quantile_interpolates_within_bucket(self):
        histogram = MetricsRegistry().histogram(
            "q", "q", buckets=(1.0, 2.0, 4.0))
        # 10 samples spread uniformly in (1, 2]: the median rank
        # lands mid-bucket, so interpolation gives the bucket middle.
        for i in range(10):
            histogram.observe(1.05 + i * 0.1)
        assert histogram.quantile(0.5) == pytest.approx(1.5, abs=0.11)
        # p0 / p100 stay inside the observed range (min/max clamping).
        assert histogram.quantile(0.0) >= 1.0
        assert histogram.quantile(1.0) <= 2.0

    def test_histogram_quantile_clamps_overflow_bucket(self):
        histogram = MetricsRegistry().histogram(
            "q", "q", buckets=(1.0,))
        histogram.observe(5.0)
        histogram.observe(7.0)
        # Both samples overflow the last bound; without the tracked
        # max the +inf bucket would be unanswerable.
        assert 5.0 <= histogram.quantile(0.99) <= 7.0

    def test_histogram_quantile_edge_cases(self):
        histogram = MetricsRegistry().histogram(
            "q", "q", buckets=(1.0, 2.0))
        assert histogram.quantile(0.5) is None  # no samples yet
        histogram.observe(1.5, op="route")
        assert histogram.quantile(0.5) is None  # unlabeled series
        assert histogram.quantile(0.5, op="route") == \
            pytest.approx(1.5, abs=0.51)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_histogram_quantile_is_monotone_in_q(self):
        histogram = MetricsRegistry().histogram("q", "q")
        rng_values = [0.003, 0.02, 0.09, 0.4, 1.7, 6.0, 0.01, 0.25]
        for value in rng_values:
            histogram.observe(value)
        quantiles = [histogram.quantile(q)
                     for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)
        assert min(rng_values) <= quantiles[0]
        assert quantiles[-1] <= max(rng_values)

    def test_histogram_quantile_skips_empty_buckets(self):
        histogram = MetricsRegistry().histogram(
            "q", "q", buckets=(1.0, 2.0, 4.0, 8.0))
        # Samples only in the first and last finite buckets: the rank
        # walk must hop over the two empty middle buckets.
        histogram.observe(0.5)
        histogram.observe(6.0)
        assert histogram.quantile(0.25) <= 1.0
        assert 4.0 <= histogram.quantile(0.99) <= 6.0

    def test_histogram_quantile_first_bucket_clamps_to_min(self):
        histogram = MetricsRegistry().histogram(
            "q", "q", buckets=(10.0, 20.0))
        # Both samples sit high inside the wide first bucket; the
        # tracked min lifts the interpolation floor off 0.0.
        histogram.observe(9.0)
        histogram.observe(9.5)
        assert histogram.quantile(0.01) >= 9.0
        assert histogram.quantile(0.99) <= 9.5

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_get_is_idempotent_and_kind_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("m", "m")
        assert registry.counter("m", "m") is counter
        with pytest.raises(TypeError):
            registry.gauge("m", "m")

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c", "a counter").inc(stage="x")
        registry.gauge("g", "a gauge").set(2)
        registry.histogram("h", "a histogram").observe(0.3)
        snapshot = registry.snapshot()
        text = json.dumps(snapshot)
        assert "bucket_counts" in text
        assert snapshot["c"]["type"] == "counter"
        assert snapshot["c"]["series"][0]["labels"] == {"stage": "x"}
        assert snapshot["h"]["buckets"] == list(DEFAULT_BUCKETS)

    def test_reset_drops_all_families(self):
        registry = MetricsRegistry()
        registry.counter("c", "c").inc()
        registry.reset()
        assert registry.names() == []
        assert registry.counter("c", "c").total() == 0.0

    def test_use_registry_installs_and_restores(self):
        before = get_registry()
        with use_registry() as scoped:
            assert get_registry() is scoped
            assert scoped is not before
        assert get_registry() is before

    def test_set_registry_returns_previous(self):
        before = get_registry()
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert previous is before
            assert get_registry() is fresh
        finally:
            set_registry(before)

    def test_concurrent_increments_are_exact(self):
        """8 threads x 1000 increments: the counter never drops one."""
        registry = MetricsRegistry()
        counter = registry.counter("hammer", "hammer")
        histogram = registry.histogram("hammer_h", "hammer",
                                       buckets=(0.5,))
        n_threads, n_iterations = 8, 1000

        def hammer(thread_index):
            for _ in range(n_iterations):
                counter.inc(thread=str(thread_index))
                histogram.observe(0.1)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total() == pytest.approx(
            n_threads * n_iterations)
        for i in range(n_threads):
            assert counter.value(thread=str(i)) == pytest.approx(
                n_iterations)
        assert histogram.count() == n_threads * n_iterations


# ---------------------------------------------------------------------------
# golden trace
# ---------------------------------------------------------------------------


def canonical_run():
    """The canonical pipeline behind the golden-trace fixture.

    One stage of each flavour: a clean success, a retry after an
    injected fault, a skip, and a fallback — serialised with
    ``max_workers=1`` so the event order is deterministic.
    """
    spans = SpanTracer()
    faults = (FaultInjector()
              .fail("repair", times=1)
              .forward_to(spans))
    pipeline = DecisionPipeline("golden")
    pipeline.add_data(
        "collect", lambda s: s.update(x=1) or "ok",
        reads=(), writes=("x",))
    pipeline.add_governance(
        "repair", lambda s: s.update(y=s["x"] + 1) or "ok",
        reads=("x",), writes=("y",), retries=1, backoff=0.0)
    pipeline.add_analytics(
        "detect",
        lambda s: (_ for _ in ()).throw(ValueError("detector down")),
        reads=("y",), writes=("scores",), on_error="skip")
    pipeline.add_decision(
        "act",
        lambda s: (_ for _ in ()).throw(RuntimeError("primary down")),
        reads=("y",), writes=("action",), on_error="fallback",
        fallback=lambda s: s.update(action="hold") or "held")
    with use_registry():
        state, report = pipeline.run(tracer=faults, max_workers=1)
    return state, faults, spans


def canonical_stream():
    """The canonical streaming session behind the golden fixture.

    Two ticks over a three-stage DAG: the first full (nothing to
    replay yet), the second mutating one input so one branch replays
    from its delta while the dirty cone re-executes — serialised with
    ``max_workers=1`` so the event order is deterministic.
    """
    spans = SpanTracer()
    pipeline = DecisionPipeline("golden-stream")
    pipeline.add_data(
        "feed", lambda s: s.update(x=s["a"] * 2) or "ok",
        reads=("a",), writes=("x",))
    pipeline.add_governance(
        "calm", lambda s: s.update(c=1) or "ok",
        reads=("b",), writes=("c",))
    pipeline.add_decision(
        "decide", lambda s: s.update(d=s["x"] + s["c"]) or "ok",
        reads=("x", "c"), writes=("d",))
    with use_registry():
        session = pipeline.stream({"a": 1, "b": 2}, tracer=spans,
                                  max_workers=1)
        session.tick()
        state, _ = session.tick(changed={"a": 3})
    return state, spans


def _span_summary(tracer):
    """The schema-stable projection of the span tree the fixture pins."""
    by_id = {span.span_id: span for span in tracer.spans()}
    summary = []
    for span in tracer.spans():
        parent = by_id.get(span.parent_id)
        summary.append({
            "kind": span.kind,
            "name": span.name,
            "status": span.status,
            "parent": (f"{parent.kind}/{parent.name}"
                       if parent else None),
            "attempt": span.attributes.get("attempt"),
        })
    return summary


def build_golden():
    """The full fixture payload for the canonical run."""
    _, faults, spans = canonical_run()
    _, stream_spans = canonical_stream()
    return {
        "event_kinds": list(EVENT_KINDS),
        "event_sequence": faults.kinds(),
        "spans": _span_summary(spans),
        "span_fields": sorted(spans.spans()[0].as_dict()),
        "stream_events": stream_spans.kinds(),
        "stream_spans": _span_summary(stream_spans),
    }


class TestGoldenTrace:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(FIXTURE, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.fixture(scope="class")
    def actual(self):
        return build_golden()

    def test_event_kind_vocabulary_is_pinned(self, golden):
        assert list(EVENT_KINDS) == golden["event_kinds"]

    def test_event_sequence_matches_fixture(self, golden, actual):
        assert actual["event_sequence"] == golden["event_sequence"]

    def test_span_tree_matches_fixture(self, golden, actual):
        assert actual["spans"] == golden["spans"]

    def test_span_dict_schema_is_pinned(self, golden, actual):
        assert actual["span_fields"] == golden["span_fields"]

    def test_stream_event_sequence_matches_fixture(self, golden,
                                                   actual):
        assert actual["stream_events"] == golden["stream_events"]

    def test_stream_span_tree_matches_fixture(self, golden, actual):
        assert actual["stream_spans"] == golden["stream_spans"]

    def test_stream_state_reflects_the_replayed_branch(self):
        state, spans = canonical_stream()
        assert state["d"] == 7  # x = 3 * 2 re-executed, c = 1 replayed
        tick_spans = spans.spans(kind="tick")
        assert [span.name for span in tick_spans] == ["tick-0",
                                                      "tick-1"]
        run_parents = {span.parent_id
                       for span in spans.spans(kind="run")}
        assert run_parents == {span.span_id for span in tick_spans}

    def test_canonical_run_is_deterministic(self):
        assert build_golden() == build_golden()

    def test_state_reflects_skip_and_fallback(self):
        state, _, _ = canonical_run()
        assert state["y"] == 2
        assert state["action"] == "hold"
        assert "scores" not in state

    def test_chrome_trace_export_is_valid(self, tmp_path):
        _, _, spans = canonical_run()
        path = spans.export(tmp_path / "trace.json")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert events[0] == {"ph": "M", "name": "process_name",
                             "pid": 0,
                             "args": {"name": "repro.DecisionPipeline"}}
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == len(spans.spans())
        # one fault_injected + one retry + one skip + one fallback
        assert sorted(e["name"] for e in instants) == [
            "fault_injected", "stage_fallback", "stage_retry",
            "stage_skip"]
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid",
                    "args"} <= set(event)

    def test_metrics_of_canonical_run(self):
        spans = SpanTracer()
        faults = (FaultInjector()
                  .fail("repair", times=1)
                  .forward_to(spans))
        pipeline = DecisionPipeline("golden-metrics")
        pipeline.add_data("collect", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        pipeline.add_governance(
            "repair", lambda s: s.update(y=s["x"] + 1) or "ok",
            reads=("x",), writes=("y",), retries=1, backoff=0.0)
        with use_registry() as registry:
            pipeline.run(tracer=faults, max_workers=1)
        attempts = registry.get("engine.stage_attempts_total")
        assert attempts.value(stage="collect") == pytest.approx(1.0)
        assert attempts.value(stage="repair") == pytest.approx(2.0)
        retries = registry.get("engine.stage_retries_total")
        assert retries.value(stage="repair") == pytest.approx(1.0)
        outcomes = registry.get("engine.stage_outcomes_total")
        assert outcomes.value(stage="repair",
                              status="ok") == pytest.approx(1.0)
        injected = registry.get("engine.faults_injected_total")
        assert injected.value(stage="repair",
                              kind="fail") == pytest.approx(1.0)
        durations = registry.get("engine.stage_duration_seconds")
        assert durations.count(stage="repair") == 1
        runs = registry.get("engine.runs_total")
        assert runs.value(status="ok") == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# concurrency stress
# ---------------------------------------------------------------------------

N_STAGES = 32
N_INCREMENTS = 50


class TestConcurrencyStress:
    @pytest.fixture(scope="class")
    def stressed(self):
        """32 contract-independent stages hammering shared metrics."""
        spans = SpanTracer()
        pipeline = DecisionPipeline("stress")

        def make_stage(index):
            label = f"s{index:02d}"

            def work(state):
                registry = get_registry()
                counter = registry.counter(
                    "stress.work_total", "stress increments")
                histogram = registry.histogram(
                    "stress.latency_seconds", "stress latencies",
                    buckets=(0.001, 0.01, 0.1))
                for _ in range(N_INCREMENTS):
                    counter.inc(stage=label)
                    histogram.observe(0.0005, stage=label)
                state[f"out{index}"] = index
                return "ok"

            return work

        for index in range(N_STAGES):
            pipeline.add_analytics(f"s{index:02d}", make_stage(index),
                                   reads=(), writes=(f"out{index}",))
        with use_registry() as registry:
            state, _ = pipeline.run(tracer=spans, max_workers=8)
        return state, registry, spans

    def test_counter_totals_are_exact(self, stressed):
        _, registry, _ = stressed
        counter = registry.get("stress.work_total")
        assert counter.total() == pytest.approx(
            N_STAGES * N_INCREMENTS)
        for index in range(N_STAGES):
            assert counter.value(
                stage=f"s{index:02d}") == pytest.approx(N_INCREMENTS)

    def test_histogram_counts_are_exact(self, stressed):
        _, registry, _ = stressed
        histogram = registry.get("stress.latency_seconds")
        assert histogram.total_count() == N_STAGES * N_INCREMENTS
        for index in range(N_STAGES):
            assert histogram.count(
                stage=f"s{index:02d}") == N_INCREMENTS

    def test_every_stage_ran_and_wrote(self, stressed):
        state, _, _ = stressed
        for index in range(N_STAGES):
            assert state[f"out{index}"] == index

    def test_all_spans_closed_with_monotonic_bounds(self, stressed):
        _, _, spans = stressed
        run_span = spans.span("run", kind="run")
        all_spans = spans.spans()
        assert len(all_spans) == 1 + 2 * N_STAGES
        for span in all_spans:
            assert span.end is not None, span
            assert span.start <= span.end, span
            assert run_span.start <= span.start
            assert span.end <= run_span.end

    def test_attempts_nest_inside_their_stage(self, stressed):
        _, _, spans = stressed
        by_id = {span.span_id: span for span in spans.spans()}
        attempts = spans.spans(kind="attempt")
        assert len(attempts) == N_STAGES
        for attempt in attempts:
            stage = by_id[attempt.parent_id]
            assert stage.kind == "stage"
            assert stage.name == attempt.name
            assert stage.start <= attempt.start <= attempt.end
            assert attempt.end <= stage.end
            assert attempt.thread_id == stage.thread_id

    def test_per_stage_event_order_is_monotonic(self, stressed):
        _, _, spans = stressed
        for index in range(N_STAGES):
            name = f"s{index:02d}"
            stamps = [event.monotonic for event in spans.events
                      if event.stage == name]
            assert stamps == sorted(stamps)
            kinds = [event.kind for event in spans.events
                     if event.stage == name]
            assert kinds == ["stage_start", "stage_attempt",
                             "stage_end"]

    def test_engine_metrics_cover_every_stage(self, stressed):
        _, registry, _ = stressed
        outcomes = registry.get("engine.stage_outcomes_total")
        for index in range(N_STAGES):
            assert outcomes.value(stage=f"s{index:02d}",
                                  status="ok") == pytest.approx(1.0)
        durations = registry.get("engine.stage_duration_seconds")
        total = sum(series["count"]
                    for series in durations._snapshot_series())
        assert total == N_STAGES


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------


def _two_stage_pipeline():
    pipeline = DecisionPipeline("profiled")
    pipeline.add_data(
        "produce",
        lambda s: s.update(data=[float(i) for i in range(20000)])
        or "ok",
        reads=(), writes=("data",))
    pipeline.add_analytics(
        "consume",
        lambda s: s.update(total=sum(s["data"])) or "ok",
        reads=("data",), writes=("total",))
    return pipeline


class TestProfiling:
    def test_profile_attaches_per_stage_numbers(self):
        with use_registry():
            _, report = _two_stage_pipeline().run(profile=True)
        assert sorted(report.profiles) == ["consume", "produce"]
        produce = report.profile("produce")
        assert {"stage", "layer", "wall_seconds", "cpu_seconds",
                "queue_wait_seconds", "net_alloc_bytes",
                "peak_alloc_bytes"} <= set(produce)
        assert produce["layer"] == "data"
        assert produce["wall_seconds"] > 0.0
        assert produce["queue_wait_seconds"] >= 0.0
        # 20k floats cost well over 100 KiB
        assert produce["peak_alloc_bytes"] > 100_000
        assert report.profile("consume")["wall_seconds"] > 0.0

    def test_profile_off_by_default(self):
        with use_registry():
            _, report = _two_stage_pipeline().run()
        assert report.profiles == {}
        with pytest.raises(KeyError, match="profile=True"):
            report.profile("produce")

    def test_profile_lines_in_render(self):
        with use_registry():
            _, report = _two_stage_pipeline().run(profile=True)
        rendered = report.render()
        assert "profile (wall / cpu / queue-wait / net alloc):" \
            in rendered
        assert "produce:" in rendered

    def test_profile_respects_preexisting_tracemalloc(self):
        already_tracing = tracemalloc.is_tracing()
        if not already_tracing:
            tracemalloc.start()
        try:
            block = bytearray(20_000_000)
            del block
            with use_registry():
                _, report = _two_stage_pipeline().run(profile=True)
            assert tracemalloc.is_tracing()
            assert report.profile("produce")["peak_alloc_bytes"] > 0
            # the caller's recorded peak survives the profiled run
            assert tracemalloc.get_traced_memory()[1] >= 20_000_000
        finally:
            if not already_tracing:
                tracemalloc.stop()

    def test_profile_under_concurrency(self):
        pipeline = DecisionPipeline("profiled-parallel")
        for index in range(4):
            pipeline.add_analytics(
                f"p{index}",
                lambda s, i=index: s.update(**{f"r{i}": i}) or "ok",
                reads=(), writes=(f"r{index}",))
        with use_registry():
            _, report = pipeline.run(profile=True, max_workers=4)
        assert len(report.profiles) == 4
        for profile in report.profiles.values():
            assert profile["wall_seconds"] >= 0.0


# ---------------------------------------------------------------------------
# one stage clock: report, spans, metrics and profile reconcile exactly
# ---------------------------------------------------------------------------


def clock_source(view):
    view["x"] = 1
    return "ok"


def clock_flaky(view):
    view["y"] = view["x"] + 1
    return "ok"


def clock_broken(view):
    raise ValueError("stage down")


def clock_fallback(view):
    view["action"] = "hold"
    return "held"


def clock_hang(view):
    view["h"] = view["x"]
    return "ok"


def clock_cached(view):
    view["c"] = view["seed"] * 2
    return "ok", {"rows": 1}


def clock_after(view):
    view["z"] = view["b"]
    return "ok"


def clock_slow(view):
    view["b"] = view["x"]
    return "ok"


def clock_spin(view):
    """Burns 0.2 s of CPU in whichever thread runs the attempt."""
    deadline = time.thread_time() + 0.2
    while time.thread_time() < deadline:
        pass
    view["spun"] = True
    return "ok"


@pytest.fixture(scope="module")
def process_executor():
    """One shared worker pool for the module's process-backend runs."""
    executor = ProcessExecutor(max_workers=2)
    yield executor
    executor.close()


@pytest.fixture(params=["serial", "thread", "process"])
def backend(request, process_executor):
    if request.param == "process":
        return process_executor
    return request.param


def _clock_run(pipeline, backend, faults=None, *, expect=None,
               **kwargs):
    """Run with a span tracer, a fresh registry and profiling on;
    returns ``(report, spans, registry)``, also for a run that
    raises ``expect``."""
    spans = SpanTracer()
    tracer = spans if faults is None else faults.forward_to(spans)
    with use_registry() as registry:
        if expect is None:
            _, report = pipeline.run(tracer=tracer, executor=backend,
                                     profile=True, **kwargs)
        else:
            with pytest.raises(expect) as caught:
                pipeline.run(tracer=tracer, executor=backend,
                             profile=True, **kwargs)
            report = caught.value.report
    return report, spans, registry


def _assert_one_clock(report, spans, registry):
    """Every timing source reads the same float for every stage."""
    durations = registry.get("engine.stage_duration_seconds")
    waits = registry.get("engine.stage_queue_wait_seconds")
    for record in report.records:
        seconds = record.duration_seconds
        assert spans.span(record.name).duration == seconds, record
        if record.status == "cancelled":
            assert durations.count(stage=record.name) == 0
        else:
            assert durations.sum(stage=record.name) == seconds, record
        if record.name in report.profiles:
            profile = report.profile(record.name)
            assert profile["wall_seconds"] == seconds, record
            assert (waits.sum(stage=record.name)
                    == profile["queue_wait_seconds"]), record
    run_span = spans.span("run", kind="run")
    assert run_span.duration == report.wall_seconds
    assert (registry.get("engine.run_duration_seconds").sum()
            == report.wall_seconds)


class TestOneStageClock:
    """Report, spans, histograms and profile share two stamps per
    stage, so they agree with ``==`` — never ``approx`` — for every
    stage status on every backend."""

    def test_every_status_reconciles(self, backend):
        cache = StageCache()
        warm = DecisionPipeline("warm")
        warm.add_data("cached", clock_cached, reads=("seed",),
                      writes=("c",))
        with use_registry():
            warm.run({"seed": 1}, cache=cache, executor="serial")
        pipeline = DecisionPipeline("one-clock")
        pipeline.add_data("source", clock_source, reads=(),
                          writes=("x",))
        pipeline.add_data("cached", clock_cached, reads=("seed",),
                          writes=("c",))
        pipeline.add_governance("flaky", clock_flaky, reads=("x",),
                                writes=("y",), retries=2,
                                backoff=0.01)
        pipeline.add_analytics("optional", clock_broken, reads=("x",),
                               writes=("s",), on_error="skip")
        pipeline.add_analytics("hang", clock_hang, reads=("x",),
                               writes=("h",), timeout=30.0,
                               on_error="skip")
        pipeline.add_decision("primary", clock_broken, reads=("y",),
                              writes=("action",), on_error="fallback",
                              fallback=clock_fallback)
        faults = FaultInjector().fail("flaky", times=2).timeout("hang")
        report, spans, registry = _clock_run(
            pipeline, backend, faults, initial_state={"seed": 1},
            cache=cache)
        assert report.status_map() == {
            "source": "ok", "cached": "ok", "flaky": "ok",
            "optional": "skipped", "hang": "skipped",
            "primary": "fallback"}
        assert report.record("cached").cache_hit
        assert report.record("flaky").retries == 2
        assert spans.of_kind("stage_timeout")
        _assert_one_clock(report, spans, registry)
        # the retried stage's duration covers both failed attempts
        # and the backoff pauses between them
        flaky = spans.span("flaky")
        attempts = spans.spans(kind="attempt", name="flaky")
        assert len(attempts) == 3
        assert flaky.start <= attempts[0].start
        assert attempts[-1].end <= flaky.end

    def test_fail_policy_reconciles(self, backend):
        pipeline = DecisionPipeline("one-clock-fail")
        pipeline.add_data("source", clock_source, reads=(),
                          writes=("x",))
        pipeline.add_governance("broken", clock_broken, reads=("x",),
                                writes=("b",), retries=1,
                                backoff=0.01)
        pipeline.add_analytics("after", clock_after, reads=("b",),
                               writes=("z",))
        report, spans, registry = _clock_run(pipeline, backend,
                                             expect=StageFailure)
        assert report.status_map() == {
            "source": "ok", "broken": "failed", "after": "cancelled"}
        assert spans.span("broken").status == "failed"
        assert report.record("after").duration_seconds == 0.0
        _assert_one_clock(report, spans, registry)

    def test_deadline_cancellation_reconciles(self, backend):
        pipeline = DecisionPipeline("one-clock-deadline")
        pipeline.add_data("source", clock_source, reads=(),
                          writes=("x",))
        pipeline.add_governance("slow", clock_slow, reads=("x",),
                                writes=("b",))
        pipeline.add_analytics("after", clock_after, reads=("b",),
                               writes=("z",))
        faults = FaultInjector().delay("slow", 0.3)
        report, spans, registry = _clock_run(
            pipeline, backend, faults, expect=RunDeadlineExceeded,
            deadline=0.05)
        assert report.status_map() == {
            "source": "ok", "slow": "cancelled", "after": "cancelled"}
        assert "slow" in report.profiles
        _assert_one_clock(report, spans, registry)

    def test_tick_span_matches_tick_histogram(self, backend):
        pipeline = DecisionPipeline("one-clock-stream")
        pipeline.add_data("source", clock_source, reads=(),
                          writes=("x",))
        pipeline.add_governance("flaky", clock_flaky, reads=("x",),
                                writes=("y",))
        spans = SpanTracer()
        with use_registry() as registry:
            session = pipeline.stream(tracer=spans, executor=backend)
            session.tick()
        (tick,) = spans.spans(kind="tick")
        assert (registry.get("engine.tick_duration_seconds").sum()
                == tick.duration)
        run_span = spans.span("run", kind="run")
        assert run_span.duration == session.last_report.wall_seconds

    def test_process_backend_counts_worker_cpu(self, process_executor):
        pipeline = DecisionPipeline("one-clock-cpu")
        pipeline.add_data("spin", clock_spin, reads=(),
                          writes=("spun",))
        with use_registry():
            _, report = pipeline.run(executor=process_executor,
                                     profile=True)
        assert report.profile("spin")["cpu_seconds"] >= 0.2


# ---------------------------------------------------------------------------
# tee tracer
# ---------------------------------------------------------------------------


class TestTeeTracer:
    def test_fans_out_and_survives_broken_child(self):
        class Broken:
            def on_event(self, event):
                raise RuntimeError("observer bug")

        spans = SpanTracer()
        tee = TeeTracer(Broken(), spans)
        pipeline = DecisionPipeline("tee")
        pipeline.add_data("only", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        with use_registry():
            pipeline.run(tracer=tee)
        assert spans.span("only").status == "ok"

    def test_forwards_inject_without_swallowing(self):
        faults = FaultInjector().fail("only", times=1)
        spans = SpanTracer()
        tee = TeeTracer(faults, spans)
        pipeline = DecisionPipeline("tee-inject")
        pipeline.add_data("only", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",), retries=1,
                          backoff=0.0)
        with use_registry():
            pipeline.run(tracer=tee)
        assert faults.injected == 1
        assert [s.status for s in spans.spans(kind="attempt")] == \
            ["retry", "ok"]


# ---------------------------------------------------------------------------
# the repro.trace CLI
# ---------------------------------------------------------------------------


class TestTraceCli:
    def test_demo_exports_valid_chrome_trace(self, tmp_path, capsys):
        from repro.trace import main

        trace_path = tmp_path / "demo.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(["--demo", "-o", str(trace_path),
                     "--metrics", str(metrics_path)])
        assert code == 0
        document = json.loads(trace_path.read_text())
        names = {event["name"]
                 for event in document["traceEvents"]}
        assert {"run", "collect", "repair", "detect", "act"} <= names
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["engine.runs_total"]["series"]
        assert "wrote" in capsys.readouterr().out

    def test_script_mode_traces_user_pipeline(self, tmp_path):
        from repro.trace import main

        script = tmp_path / "user_script.py"
        script.write_text(
            "from repro import DecisionPipeline\n"
            "import sys\n"
            "pipeline = DecisionPipeline('scripted')\n"
            "pipeline.add_data('a', lambda s: s.update(x=1) or 'ok',\n"
            "                  reads=(), writes=('x',))\n"
            "pipeline.add_decision('b',\n"
            "    lambda s: s.update(y=s['x'] + len(sys.argv)) or 'ok',\n"
            "    reads=('x',), writes=('y',))\n"
            "pipeline.run()\n")
        trace_path = tmp_path / "trace.json"
        code = main(["-o", str(trace_path), "--profile", str(script),
                     "extra-arg"])
        assert code == 0
        document = json.loads(trace_path.read_text())
        stages = {event["name"]
                  for event in document["traceEvents"]
                  if event.get("cat") == "stage"}
        assert stages == {"a", "b"}

    def test_capture_restores_run_and_registry(self):
        from repro.trace import TraceCapture

        original_run = DecisionPipeline.run
        original_registry = get_registry()
        with TraceCapture() as capture:
            assert DecisionPipeline.run is not original_run
            assert get_registry() is capture.registry
        assert DecisionPipeline.run is original_run
        assert get_registry() is original_registry

    def test_rejects_script_and_demo_together(self, tmp_path):
        from repro.trace import main

        with pytest.raises(SystemExit):
            main(["--demo", "whatever.py"])
        with pytest.raises(SystemExit):
            main([])


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            json.dump(build_golden(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {FIXTURE}")
    else:
        print("usage: python tests/test_observability.py --regen")
