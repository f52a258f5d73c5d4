"""Differential + chaos harness for streaming/incremental execution.

The streaming engine's core claim (``docs/STREAMING.md``): every
``IncrementalSession.tick`` produces a final state **byte-identical**
to a from-scratch ``DecisionPipeline.run`` on the same accumulated
input state, while re-executing only the dirty downstream cone of the
tick's mutations.  This module pins that claim three ways:

* a **randomized differential harness** — seeded random DAG
  topologies crossed with random per-tick mutations and deletions,
  compared against the from-scratch oracle with the ndarray-aware
  :func:`~repro.core.cache.fingerprint`, across all three executor
  backends (serial / thread / process);
* a **hypothesis property test** driving the same harness over a much
  wider seed space (serial backend, bounded examples);
* **chaos tests** — :class:`~repro.core.faults.FaultInjector` errors,
  timeouts and deadline cancellations mid-stream, asserting the
  transactional tick guarantees (a failed tick publishes nothing, its
  mutations stay pending, the next successful tick reconverges on the
  oracle) and that metrics and spans reconcile with the reports.

Stage functions are module-level (built with ``functools.partial``)
so every case also pickles across the process backend.  All
randomness is seeded — no flaky topology draws.
"""

import functools
import random
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CollectingTracer,
    DecisionPipeline,
    FaultInjector,
    IncrementalSession,
    ProcessExecutor,
    RunDeadlineExceeded,
    Stage,
    StageCache,
    StageFailure,
    Tick,
)
from repro.core.cache import fingerprint
from repro.core.events import EVENT_KINDS
from repro.observability import MetricsRegistry, SpanTracer
from repro.observability.metrics import use_registry

BACKENDS = ("serial", "thread", "process")
LAYERS = ("data", "governance", "analytics", "decision")


@pytest.fixture(scope="module")
def process_executor():
    """One shared worker pool for the module (pool start-up is the
    expensive part; these tests exercise semantics, not cold start)."""
    executor = ProcessExecutor(max_workers=2)
    yield executor
    executor.close()


def backend_executor(name, process_executor):
    if name == "process":
        return process_executor
    return name


# -- deterministic, picklable stage functions --------------------------------


def df_stage(view, *, reads, writes, drop=None):
    """Differential-harness stage: outputs are a pure function of the
    read values (fingerprint-derived), with a value-dependent deletion
    tombstone so ticks exercise the delete-replay path too."""
    payload = {key: view.get(key, "<absent>") for key in sorted(reads)}
    digest = fingerprint(payload)
    for index, key in enumerate(sorted(writes)):
        seed = int(digest[:8], 16) + index
        if index % 2:
            view[key] = np.arange(5, dtype=np.float64) * ((seed % 97) + 1)
        else:
            view[key] = f"{key}={digest[:12]}"
    if drop is not None and int(digest[8:10], 16) % 2:
        del view[drop]
    return "df"


def inc_total_full(view):
    """From-scratch form of the windowed fold: total over history."""
    history = view["history"]
    view["n_seen"] = len(history)
    view["total"] = float(sum(history))
    return "windowed"


def inc_total_fold(view, tick):
    """Fold form: add only the rows that arrived since the last tick.

    Equivalent to :func:`inc_total_full` as long as ``history`` is
    append-only — the fold discipline the engine documents and this
    harness checks."""
    history = view["history"]
    view["total"] = view["total"] + float(sum(history[view["n_seen"]:]))
    view["n_seen"] = len(history)
    return "folded"


def inc_alarm(view):
    view["alarm"] = bool(view["total"] > 50.0)
    return "alarm"


def chaos_src(view):
    view["x"] = float(view["a"]) * 2.0
    return "src"


def chaos_reader(view):
    view["y"] = view.get("x", 0.0) + 1.0
    return "reader"


def chaos_fallback(view):
    view["x"] = -1.0
    return "held"


# -- differential harness ----------------------------------------------------


def assert_state_equal(actual, oracle, context):
    """Byte-identity via fingerprint, with a per-key diff on failure."""
    if fingerprint(actual) == fingerprint(oracle):
        return
    problems = []
    for key in sorted(set(actual) | set(oracle), key=str):
        if key not in actual:
            problems.append(f"missing {key!r}")
        elif key not in oracle:
            problems.append(f"extra {key!r}")
        elif fingerprint(actual[key]) != fingerprint(oracle[key]):
            problems.append(
                f"differs {key!r}: {actual[key]!r} != {oracle[key]!r}")
    pytest.fail(f"{context}: tick state diverged from the "
                f"from-scratch oracle: {problems}")


def random_value(rng, key):
    roll = rng.random()
    if roll < 0.4:
        return rng.randint(0, 10 ** 6)
    if roll < 0.7:
        return np.asarray([rng.uniform(-5, 5) for _ in range(4)])
    return f"{key}:{rng.randint(0, 999)}"


def build_random_pipeline(rng):
    """A random contract-declared DAG whose layer assignment respects
    the stage index order (so reads always point upstream)."""
    inputs = [f"in{i}" for i in range(rng.randint(2, 5))]
    n_stages = rng.randint(4, 8)
    layer_indices = sorted(rng.choices(range(4), k=n_stages))
    pipeline = DecisionPipeline("differential")
    produced = []
    for j in range(n_stages):
        pool = inputs + produced
        reads = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
        writes = [f"s{j}a"]
        if rng.random() < 0.5:
            writes.append(f"s{j}b")
        drop = writes[-1] if rng.random() < 0.4 else None
        produced.extend(writes)
        pipeline.add_stage(
            LAYERS[layer_indices[j]], f"stage{j}",
            functools.partial(df_stage, reads=frozenset(reads),
                              writes=frozenset(writes), drop=drop),
            reads=reads, writes=writes)
    return pipeline, inputs


def random_mutation(rng, inputs):
    changed = {key: random_value(rng, key)
               for key in inputs if rng.random() < 0.45}
    deleted = [key for key in inputs
               if key not in changed and rng.random() < 0.15]
    return changed, deleted


def run_differential(seed, executor, *, n_ticks=4, max_workers=4):
    """One full differential episode; returns total replayed stages."""
    rng = random.Random(seed)
    pipeline, inputs = build_random_pipeline(rng)
    initial = {key: random_value(rng, key)
               for key in inputs if rng.random() < 0.8}
    session = pipeline.stream(initial, executor=executor,
                              max_workers=max_workers)
    replayed = 0
    for index in range(n_ticks):
        changed, deleted = random_mutation(rng, inputs)
        state, report = session.tick(changed=changed, deleted=deleted)
        oracle_state, oracle_report = pipeline.run(
            session.input_state, executor=executor,
            max_workers=max_workers)
        context = f"seed={seed} tick={index}"
        assert_state_equal(state, oracle_state, context)
        assert report.status_map() == oracle_report.status_map(), context
        assert session.state == state
        replayed += report.cache_hits
    assert session.completed == n_ticks
    return replayed


class TestDifferentialHarness:
    """Random topologies x random mutations == from-scratch oracle."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_matches_oracle(self, backend, seed):
        run_differential(seed, backend)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_oracle_process(self, seed, process_executor):
        run_differential(seed, process_executor, n_ticks=3)

    def test_replays_save_work_across_seeds(self):
        total = sum(run_differential(100 + seed, "serial")
                    for seed in range(4))
        assert total > 0, "no stage was ever replayed from its delta"


class TestPlacementDifferential:
    """The thread backend's learned placement moves stages between the
    pool and the calling thread; what a tick computes never moves."""

    @staticmethod
    def two_fork_joins():
        """Two fork-joins in a row: ``g1``/``g2`` and ``h1``/``h2`` are
        ready together whenever a tick changes ``in0``."""
        pipeline = DecisionPipeline("placement")
        for layer, name, reads, writes in [
                ("data", "load", ("in0", "in1"), ("l",)),
                ("governance", "g1", ("l",), ("a",)),
                ("governance", "g2", ("l",), ("b", "b2")),
                ("analytics", "join", ("a", "b"), ("j",)),
                ("decision", "h1", ("j",), ("h1",)),
                ("decision", "h2", ("j", "in1"), ("h2",))]:
            pipeline.add_stage(
                layer, name,
                functools.partial(df_stage, reads=frozenset(reads),
                                  writes=frozenset(writes)),
                reads=reads, writes=writes)
        return pipeline

    def test_forty_thread_ticks_match_serial(self, monkeypatch):
        from repro.core import scheduler

        rng = random.Random(41)
        ticks = [{"in0": rng.randint(0, 10 ** 6),
                  "in1": rng.randint(0, 3)} for _ in range(40)]
        serial = self.two_fork_joins().stream(executor="serial")
        expected = [fingerprint(serial.tick(changed=changed)[0])
                    for changed in ticks]

        # Scripted readings: the forked stages read as a busy pair for
        # ten ticks, then as waiting for ten, and so on, so placement
        # goes to the calling thread and back twice.
        phase = {"busy": True}
        monkeypatch.setattr(
            scheduler, "_reading",
            lambda name, cpu, wall: (
                (0.5 if phase["busy"] else 0.05, 1.0)
                if name[0] in "gh" else (cpu, wall)))
        pipeline = self.two_fork_joins()
        session = pipeline.stream(executor="thread")
        placed = []
        for number, changed in enumerate(ticks):
            phase["busy"] = number // 10 % 2 == 0
            state, _ = session.tick(changed=changed)
            assert fingerprint(state) == expected[number], number
            placed.append(len(pipeline._placement))
        assert placed[:10] == [4] * 10
        assert placed[10:20] == [0] * 10
        assert placed[20:30] == [4] * 10


class TestPropertyDifferential:
    """Hypothesis sweep over the same harness (serial, bounded)."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_any_topology_matches_oracle(self, seed):
        run_differential(seed, "serial", n_ticks=3)


# -- exact dirty-cone accounting on a known topology -------------------------


def diamond_pipeline():
    add = functools.partial
    pipeline = DecisionPipeline("diamond")
    pipeline.add_data(
        "left", add(df_stage, reads=frozenset(["a"]),
                    writes=frozenset(["l"])),
        reads=("a",), writes=("l",))
    pipeline.add_governance(
        "right", add(df_stage, reads=frozenset(["b"]),
                     writes=frozenset(["r"])),
        reads=("b",), writes=("r",))
    pipeline.add_analytics(
        "merge", add(df_stage, reads=frozenset(["l", "r"]),
                     writes=frozenset(["m"])),
        reads=("l", "r"), writes=("m",))
    pipeline.add_decision(
        "out", add(df_stage, reads=frozenset(["m"]),
                   writes=frozenset(["o"])),
        reads=("m",), writes=("o",))
    return pipeline


class TestDirtyCone:
    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_only_the_cone_reexecutes(self, backend):
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2}, executor=backend)
        _, first = session.tick()
        assert first.cache_hits == 0

        state, report = session.tick(changed={"a": 3})
        hits = {r.name for r in report.records if r.cache_hit}
        assert hits == {"right"}
        oracle, _ = pipeline.run(session.input_state, executor=backend)
        assert_state_equal(state, oracle, "diamond changed=a")

        _, report = session.tick()
        assert report.cache_hits == 4

    def test_no_change_tick_replays_everything(self):
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2})
        first_state, _ = session.tick()
        state, report = session.tick()
        assert report.cache_hits == 4
        assert fingerprint(state) == fingerprint(first_state)

    def test_key_identity_equal_value_still_dirties(self):
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2})
        session.tick()
        _, report = session.tick(changed={"a": 1})
        assert not report.record("left").cache_hit
        assert report.record("right").cache_hit

    def test_deleting_an_input_dirties_its_readers(self):
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2})
        session.tick()
        state, report = session.tick(deleted=["b"])
        assert report.record("left").cache_hit
        assert not report.record("right").cache_hit
        oracle, _ = pipeline.run(session.input_state)
        assert_state_equal(state, oracle, "deleted=b")
        assert "b" not in session.input_state

    def test_declared_but_unwritten_key_stays_dirty(self):
        # "partial" declares writes (x, maybe) but only ever writes x:
        # a clean replay may only launder keys the delta actually
        # wrote, so "maybe" must keep its reader dirty every tick.
        def partial_writer(view):
            view["x"] = view["a"]
            return "partial"

        def maybe_reader(view):
            view["y"] = view.get("maybe", 0)
            return "reader"

        pipeline = DecisionPipeline("unwritten")
        pipeline.add_data("partial", partial_writer,
                          reads=("a",), writes=("x", "maybe"))
        pipeline.add_decision("reader", maybe_reader,
                              reads=("maybe",), writes=("y",))
        session = pipeline.stream({"a": 1})
        session.tick()
        _, report = session.tick(changed={"a": 2})
        assert not report.record("reader").cache_hit

    def test_full_tick_recomputes_every_stage(self):
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2})
        session.tick()
        state, report = session.tick(full=True)
        assert report.cache_hits == 0
        oracle, _ = pipeline.run(session.input_state)
        assert_state_equal(state, oracle, "full=True")


# -- incremental folds -------------------------------------------------------


def fold_pipeline():
    pipeline = DecisionPipeline("windowed")
    pipeline.add_analytics(
        "window", inc_total_full, reads=("history",),
        writes=("total", "n_seen"), incremental=inc_total_fold)
    pipeline.add_decision(
        "alarm", inc_alarm, reads=("total",), writes=("alarm",))
    return pipeline


class TestIncrementalFolds:
    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_fold_equals_recompute_on_appends(self, backend):
        pipeline = fold_pipeline()
        registry = MetricsRegistry()
        history = [1.0, 2.0]
        session = pipeline.stream({"history": list(history)},
                                  executor=backend, metrics=registry)
        session.tick()
        for chunk in ([3.0, 4.0], [10.0, 20.0], [30.0]):
            history.extend(chunk)
            state, _ = session.tick(changed={"history": list(history)})
            oracle, _ = pipeline.run(session.input_state,
                                     executor=backend)
            assert_state_equal(state, oracle, f"history={history}")
        assert state["alarm"] is True
        folds = registry.counter("engine.tick_stages_total").value(
            disposition="incremental")
        assert folds == 3.0

    def test_fold_runs_under_the_process_backend(self, process_executor):
        pipeline = fold_pipeline()
        session = pipeline.stream({"history": [1.0, 2.0]},
                                  executor=process_executor)
        session.tick()
        state, _ = session.tick(changed={"history": [1.0, 2.0, 3.0]})
        assert state["total"] == 6.0
        assert state["n_seen"] == 3

    def test_full_tick_bypasses_the_fold(self):
        pipeline = fold_pipeline()
        registry = MetricsRegistry()
        session = pipeline.stream({"history": [1.0]}, metrics=registry)
        session.tick()
        state, report = session.tick(changed={"history": [5.0]},
                                     full=True)
        assert state["total"] == 5.0
        assert report.cache_hits == 0
        folds = registry.counter("engine.tick_stages_total").value(
            disposition="incremental")
        assert folds == 0.0

    def test_first_tick_always_recomputes(self):
        pipeline = fold_pipeline()
        session = pipeline.stream({"history": [4.0]})
        state, _ = session.tick()
        assert state["total"] == 4.0

    def test_incremental_requires_a_callable(self):
        with pytest.raises(TypeError, match="incremental"):
            Stage("data", "s", lambda v: None, reads=("a",),
                  writes=("b",), incremental=42)

    def test_describe_contract_reports_the_fold(self):
        stage = Stage("data", "s", inc_total_full, reads=("history",),
                      writes=("total", "n_seen"),
                      incremental=inc_total_fold)
        assert stage.describe_contract()["incremental"] is True
        plain = Stage("data", "p", inc_total_full, reads=("history",),
                      writes=("total", "n_seen"))
        assert plain.describe_contract()["incremental"] is False


# -- chaos: faults, timeouts, deadlines mid-stream ---------------------------


def chaos_pipeline(*, retries=0, on_error="fail", fallback=None):
    pipeline = DecisionPipeline("chaos")
    pipeline.add_data("src", chaos_src, reads=("a",), writes=("x",),
                      retries=retries, backoff=0.0, on_error=on_error,
                      fallback=fallback)
    pipeline.add_decision("reader", chaos_reader, reads=("x",),
                          writes=("y",))
    return pipeline


class TestChaos:
    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_retry_absorbs_an_injected_fault(self, backend):
        faults = FaultInjector()
        pipeline = chaos_pipeline(retries=2)
        session = pipeline.stream({"a": 1.0}, tracer=faults,
                                  executor=backend)
        session.tick()
        faults.fail("src", times=1)
        state, report = session.tick(changed={"a": 2.0})
        assert report.record("src").retries >= 1
        oracle, _ = pipeline.run(session.input_state, executor=backend)
        assert_state_equal(state, oracle, "retry recovery")
        assert faults.pending() == 0

    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_failed_tick_publishes_nothing_and_stays_pending(
            self, backend):
        faults = FaultInjector()
        pipeline = chaos_pipeline()
        session = pipeline.stream({"a": 1.0}, tracer=faults,
                                  executor=backend)
        committed, _ = session.tick()

        faults.fail("src", times=1)
        with pytest.raises(StageFailure):
            session.tick(changed={"a": 5.0})
        # Transactional: the failed tick committed nothing...
        assert session.state == committed
        assert session.completed == 1
        # ...but its input mutation stuck, pending recomputation.
        assert session.input_state["a"] == 5.0

        # A no-change tick must recompute the whole pending cone.
        state, report = session.tick()
        assert not report.record("src").cache_hit
        assert not report.record("reader").cache_hit
        oracle, _ = pipeline.run(session.input_state, executor=backend)
        assert_state_equal(state, oracle, "post-failure recovery")
        assert state["x"] == 10.0

    def test_deadline_cancellation_mid_stream_recovers(self):
        faults = FaultInjector()
        pipeline = chaos_pipeline()
        session = pipeline.stream({"a": 1.0}, tracer=faults)
        session.tick()
        faults.delay("src", 0.3)
        with pytest.raises(RunDeadlineExceeded):
            session.tick(changed={"a": 7.0}, deadline=0.05)
        assert session.completed == 1
        state, _ = session.tick()
        oracle, _ = pipeline.run(session.input_state)
        assert_state_equal(state, oracle, "post-deadline recovery")
        assert state["x"] == 14.0

    def test_injected_timeout_with_skip_policy_heals_next_tick(self):
        faults = FaultInjector().timeout("src")
        pipeline = chaos_pipeline(on_error="skip")
        pipeline_oracle = chaos_pipeline(on_error="skip")
        session = pipeline.stream({"a": 1.0}, tracer=faults)
        state, report = session.tick()
        # The tick itself is ok, the stage skipped: no writes land.
        assert report.record("src").status != "ok"
        assert "x" not in state
        # A skipped stage has no delta to replay — it re-executes on
        # the next tick and the session converges on the oracle.
        state, report = session.tick()
        assert not report.record("src").cache_hit
        oracle, _ = pipeline_oracle.run(session.input_state)
        assert_state_equal(state, oracle, "post-skip convergence")
        assert state["x"] == 2.0

    def test_fallback_result_is_not_replayed(self):
        faults = FaultInjector().fail("src", times=1)
        pipeline = chaos_pipeline(on_error="fallback",
                                  fallback=chaos_fallback)
        session = pipeline.stream({"a": 1.0}, tracer=faults)
        state, report = session.tick()
        assert report.record("src").status == "fallback"
        assert state["x"] == -1.0
        # Fallback output is deliberately never cached: the primary
        # runs again next tick and the degraded value washes out.
        state, report = session.tick()
        assert not report.record("src").cache_hit
        assert state["x"] == 2.0

    def test_fault_mid_stream_on_the_process_backend(
            self, process_executor):
        faults = FaultInjector().fail("src", times=1)
        pipeline = chaos_pipeline(retries=1)
        session = pipeline.stream({"a": 3.0}, tracer=faults,
                                  executor=process_executor)
        state, report = session.tick()
        assert report.record("src").retries == 1
        assert state["y"] == 7.0


# -- observability reconciliation --------------------------------------------


class TestStreamingObservability:
    def test_tick_metrics_reconcile_with_reports(self):
        registry = MetricsRegistry()
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2}, metrics=registry)
        reports = []
        for changed in ({}, {"a": 2}, {}):
            _, report = session.tick(changed=changed)
            reports.append(report)
        ticks = registry.counter("engine.ticks_total")
        assert ticks.value(status="ok") == 3.0
        assert ticks.total() == 3.0
        stages = registry.counter("engine.tick_stages_total")
        assert stages.value(disposition="replayed") == sum(
            report.cache_hits for report in reports)
        assert stages.value(disposition="executed") == sum(
            len(report.records) - report.cache_hits
            for report in reports)
        durations = registry.get("engine.tick_duration_seconds")
        assert durations is not None

    def test_ticks_leave_stage_cache_metrics_alone(self):
        # Regression: every tick built a throwaway StageCache, so two
        # ticks reset engine.stage_cache_entries to the tick's size
        # and counted lookups on synthetic per-tick keys.
        with use_registry() as registry:
            cache = StageCache()
            for a in range(3):
                diamond_pipeline().run({"a": a, "b": 2}, cache=cache)
            entries = registry.gauge("engine.stage_cache_entries")
            lookups = registry.counter("engine.stage_cache_lookups_total")
            assert entries.value() == len(cache) == 10
            before = (lookups.value(outcome="hit"),
                      lookups.value(outcome="miss"))

            session = diamond_pipeline().stream({"a": 1, "b": 2})
            session.tick()
            _, report = session.tick(changed={"a": 5})

            assert entries.value() == len(cache) == 10
            assert (lookups.value(outcome="hit"),
                    lookups.value(outcome="miss")) == before
            replays = registry.counter("engine.stage_cache_replays_total")
            assert report.cache_hits == 1  # "right" is clean
            assert replays.value(stage="right") == 3  # 2 reruns + 1 tick
            stages = registry.counter("engine.tick_stages_total")
            assert stages.value(disposition="replayed") == 1

    def test_failed_tick_counts_by_status(self):
        registry = MetricsRegistry()
        faults = FaultInjector()
        pipeline = chaos_pipeline()
        session = pipeline.stream({"a": 1.0}, tracer=faults,
                                  metrics=registry)
        session.tick()
        faults.fail("src", times=1)
        with pytest.raises(StageFailure):
            session.tick(changed={"a": 2.0})
        session.tick()
        ticks = registry.counter("engine.ticks_total")
        assert ticks.value(status="ok") == 2.0
        assert ticks.value(status="failed") == 1.0

    def test_tick_spans_parent_the_run_spans(self):
        spans = SpanTracer()
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2}, tracer=spans)
        session.tick()
        session.tick(changed={"a": 2})
        tick_spans = spans.spans(kind="tick")
        run_spans = spans.spans(kind="run")
        assert [span.name for span in tick_spans] == ["tick-0",
                                                      "tick-1"]
        assert all(span.status == "ok" for span in tick_spans)
        tick_ids = {span.span_id for span in tick_spans}
        assert len(run_spans) == 2
        assert all(span.parent_id in tick_ids for span in run_spans)

    def test_failed_tick_span_carries_the_status(self):
        spans = SpanTracer()
        faults = FaultInjector().fail("src", times=1)
        faults.forward_to(spans)
        pipeline = chaos_pipeline()
        session = pipeline.stream({"a": 1.0}, tracer=faults)
        with pytest.raises(StageFailure):
            session.tick()
        (tick_span,) = spans.spans(kind="tick")
        assert tick_span.status == "failed"

    def test_tick_events_bracket_run_events(self):
        tracer = CollectingTracer()
        pipeline = diamond_pipeline()
        session = pipeline.stream({"a": 1, "b": 2}, tracer=tracer)
        session.tick()
        kinds = [event.kind for event in tracer.events]
        assert kinds[0] == "tick_start"
        assert kinds[-1] == "tick_end"
        assert kinds.index("run_start") > kinds.index("tick_start")
        assert kinds.index("run_end") < len(kinds) - 1
        assert all(kind in EVENT_KINDS for kind in kinds)
        start = tracer.events[0]
        assert start.data["tick"] == 0
        # The first tick is full *in effect* (nothing to replay yet)
        # without the explicit flag being set.
        assert start.data["full"] is False
        assert start.data["dirty"] == 4
        end = tracer.events[-1]
        assert end.data["status"] == "ok"
        assert end.data["saved"] == 0


# -- session mechanics and validation ----------------------------------------


class TestSessionMechanics:
    def test_stream_requires_at_least_one_stage(self):
        with pytest.raises(RuntimeError, match="no stages"):
            DecisionPipeline("empty").stream()

    def test_state_is_none_before_the_first_tick(self):
        session = diamond_pipeline().stream({"a": 1, "b": 2})
        assert session.state is None
        assert session.completed == 0
        assert session.last_report is None
        assert "ticks=0/0" in repr(session)

    def test_state_properties_return_copies(self):
        session = diamond_pipeline().stream({"a": 1, "b": 2})
        session.tick()
        session.state["a"] = 999
        session.input_state["a"] = 999
        assert session.state["a"] == 1
        assert session.input_state["a"] == 1

    def test_changed_and_deleted_must_be_disjoint(self):
        session = diamond_pipeline().stream({"a": 1, "b": 2})
        with pytest.raises(ValueError, match="both changed and"):
            session.tick(changed={"a": 2}, deleted=["a"])

    def test_deadline_must_be_positive(self):
        session = diamond_pipeline().stream({"a": 1, "b": 2})
        with pytest.raises(ValueError, match="deadline"):
            session.tick(deadline=0)

    def test_explicit_run_id_threads_through(self):
        session = diamond_pipeline().stream({"a": 1, "b": 2})
        _, report = session.tick(run_id="tick-run-7")
        assert report.run_id == "tick-run-7"

    def test_concurrent_ticks_serialize(self):
        session = diamond_pipeline().stream({"a": 1, "b": 2})
        errors = []

        def spin(worker):
            try:
                for index in range(5):
                    session.tick(changed={"a": (worker, index)})
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=spin, args=(n,))
                   for n in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert session.completed == 15

    def test_tick_namedtuple_shape(self):
        tick = Tick(3, frozenset({"a"}), frozenset({"b"}))
        assert tick.number == 3
        assert tick.changed == frozenset({"a"})
        assert tick.deleted == frozenset({"b"})

    def test_exports(self):
        import repro

        assert repro.IncrementalSession is IncrementalSession


class TestCachePlumbing:
    def test_scheduler_rejects_mismatched_cache_keys(self):
        from repro.core import RunReport, dag
        from repro.core.scheduler import DagScheduler

        stage = Stage("data", "only", lambda view: "only",
                      reads=(), writes=())
        deps = dag.resolve_dependencies([stage])
        with pytest.raises(ValueError, match="cache_keys"):
            DagScheduler().execute([stage], deps, {},
                                   RunReport("mismatch"),
                                   cache=StageCache(),
                                   cache_keys=["a", "b"])


# -- the online governance / analytics companions ----------------------------


class TestStreamingImputer:
    def _gappy(self, rng, rows=40, cols=3):
        values = rng.normal(size=(rows, cols))
        mask = rng.random((rows, cols)) < 0.6
        mask[0, :] = True  # every channel observed up front
        raw = values.copy()
        raw[~mask] = np.nan
        return raw

    def test_chunked_locf_matches_batch(self):
        from repro.datatypes import TimeSeries
        from repro.governance.imputation import (
            StreamingImputer,
            impute_locf,
        )

        raw = self._gappy(np.random.default_rng(7))
        batch = impute_locf(TimeSeries(raw)).values
        imputer = StreamingImputer()
        streamed = np.vstack([imputer.push(raw[start:start + 7])
                              for start in range(0, len(raw), 7)])
        np.testing.assert_array_equal(streamed, batch)
        assert imputer.rows_seen == len(raw)

    def test_accepts_timeseries_chunks(self):
        from repro.datatypes import TimeSeries
        from repro.governance.imputation import StreamingImputer

        imputer = StreamingImputer()
        first = imputer.push(TimeSeries([1.0, np.nan, 3.0]))
        np.testing.assert_array_equal(first.values[:, 0],
                                      [1.0, 1.0, 3.0])
        second = imputer.push(TimeSeries([np.nan, 5.0]))
        np.testing.assert_array_equal(second.values[:, 0], [3.0, 5.0])

    def test_unobserved_leading_rows_fill_zero(self):
        from repro.governance.imputation import StreamingImputer

        filled = StreamingImputer().push([np.nan, np.nan, 2.0, np.nan])
        np.testing.assert_array_equal(filled, [0.0, 0.0, 2.0, 2.0])

    def test_ewma_smooths_across_chunks(self):
        from repro.governance.imputation import StreamingImputer

        imputer = StreamingImputer("ewma", alpha=0.5)
        imputer.push([4.0])
        filled = imputer.push([8.0, np.nan])
        # carry = 4 + 0.5 * (8 - 4) = 6 fills the gap.
        np.testing.assert_array_equal(filled, [8.0, 6.0])

    def test_channel_count_is_pinned(self):
        from repro.governance.imputation import StreamingImputer

        imputer = StreamingImputer()
        imputer.push(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="channels"):
            imputer.push(np.zeros((2, 2)))

    def test_reset_forgets_the_carry(self):
        from repro.governance.imputation import StreamingImputer

        imputer = StreamingImputer()
        imputer.push([7.0])
        assert imputer.carry is not None
        imputer.reset()
        assert imputer.carry is None
        np.testing.assert_array_equal(imputer.push([np.nan]), [0.0])

    def test_validation(self):
        from repro.governance.imputation import StreamingImputer

        with pytest.raises(ValueError, match="method"):
            StreamingImputer("magic")
        with pytest.raises(ValueError, match="alpha"):
            StreamingImputer("ewma", alpha=0.0)


class TestDriftTriggeredRefit:
    SHIFTS = [0.0] * 30 + [5.0] * 30 + [10.0] * 30

    def test_detector_alarm_invokes_the_refit(self):
        from repro.analytics.robustness import DriftTriggeredRefit

        calls = []
        gate = DriftTriggeredRefit(refit=lambda: calls.append(1))
        triggers = gate.observe_many(self.SHIFTS)
        assert triggers
        assert len(calls) == gate.refits == len(triggers)
        assert gate.observed == len(self.SHIFTS)

    def test_cooldown_suppresses_rapid_refits(self):
        from repro.analytics.robustness import DriftTriggeredRefit

        gate = DriftTriggeredRefit(cooldown=1000)
        triggers = gate.observe_many(self.SHIFTS)
        assert len(triggers) == 1
        assert gate.refits == 1
        assert gate.suppressed >= 1

    def test_refits_publish_a_counter(self):
        from repro.analytics.robustness import DriftTriggeredRefit

        registry = MetricsRegistry()
        with use_registry(registry):
            gate = DriftTriggeredRefit()
            gate.observe_many(self.SHIFTS)
        counter = registry.counter("analytics.drift_refits_total")
        assert counter.total() == gate.refits > 0

    def test_no_alarm_no_refit(self):
        from repro.analytics.robustness import DriftTriggeredRefit

        gate = DriftTriggeredRefit()
        assert gate.observe_many([0.0] * 50) == []
        assert gate.refits == 0
        assert "refits=0" in repr(gate)

    def test_validation(self):
        from repro.analytics.robustness import DriftTriggeredRefit

        with pytest.raises(TypeError, match="update"):
            DriftTriggeredRefit(detector=object())
        with pytest.raises(TypeError, match="refit"):
            DriftTriggeredRefit(refit=42)
        with pytest.raises(ValueError, match="cooldown"):
            DriftTriggeredRefit(cooldown=-1)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
