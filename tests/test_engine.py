"""Tests for the DAG execution engine behind :class:`DecisionPipeline`.

Covers stage contracts and their runtime validation, dependency
resolution, scheduling (contract-independent stages overlap on the
thread pool, a lone ready stage runs on the calling thread, serial
runs in index order), failure policies (fail / skip /
fallback with bounded retries), the content-keyed stage cache and its
E1 ``without_stage`` cone semantics, and the tracer/report
observability surface.
"""

import threading
import time

import pytest

from repro.core import (
    CollectingTracer,
    ContractViolation,
    DecisionPipeline,
    StageCache,
    StageFailure,
)
from repro.core.dag import critical_path_seconds
from repro.core.stage import Stage


# -- stage construction & contracts ----------------------------------------


class TestStageContracts:
    def test_duplicate_stage_name_rejected(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("load", lambda s: "a", reads=(), writes=())
        with pytest.raises(ValueError, match="duplicate"):
            pipeline.add_governance("load", lambda s: "b",
                                    reads=(), writes=())

    def test_duplicate_rejected_within_layer(self):
        pipeline = DecisionPipeline()
        pipeline.add_governance("impute", lambda s: "a",
                                reads=(), writes=("x",))
        with pytest.raises(ValueError, match="duplicate"):
            pipeline.add_governance("impute", lambda s: "b",
                                    reads=(), writes=("x",))

    def test_undeclared_write_raises(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("sneaky",
                          lambda s: s.update(hidden=1) or "done",
                          reads=(), writes=("visible",))
        with pytest.raises(ContractViolation, match="hidden"):
            pipeline.run()

    def test_undeclared_read_raises(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("peek", lambda s: f"got {s['secret']}",
                          reads=(), writes=())
        with pytest.raises(ContractViolation, match="secret"):
            pipeline.run({"secret": 42})

    def test_stage_may_read_its_own_writes(self):
        pipeline = DecisionPipeline()
        pipeline.add_data(
            "rmw", lambda s: s.update(n=s.setdefault("n", 0) + 1)
            or f"n={s['n']}", reads=(), writes=("n",))
        state, report = pipeline.run()
        assert state["n"] == 1

    def test_contract_restricts_visibility(self):
        seen = {}

        def observe(s):
            seen["keys"] = sorted(s)
            seen["has_b"] = "b" in s
            return "observed"

        pipeline = DecisionPipeline()
        pipeline.add_data("observe", observe, reads=("a",), writes=())
        pipeline.run({"a": 1, "b": 2})
        assert seen["keys"] == ["a"]
        assert seen["has_b"] is False

    def test_invalid_policy_and_contract_types(self):
        pipeline = DecisionPipeline()
        no_keys = {"reads": (), "writes": ()}
        with pytest.raises(ValueError, match="on_error"):
            pipeline.add_data("x", lambda s: "x", on_error="explode",
                              **no_keys)
        with pytest.raises(TypeError, match="not-a-set"):
            pipeline.add_data("x", lambda s: "x", reads="not-a-set",
                              writes=())
        with pytest.raises(TypeError, match="fallback"):
            pipeline.add_data("x", lambda s: "x", on_error="fallback",
                              **no_keys)
        with pytest.raises(ValueError, match="retries"):
            pipeline.add_data("x", lambda s: "x", retries=-1, **no_keys)
        with pytest.raises(ValueError, match="fallback"):
            pipeline.add_data("x", lambda s: "x",
                              fallback=lambda s: "y", **no_keys)
        with pytest.raises(TypeError, match="reads"):
            pipeline.add_data("x", lambda s: "x", writes=())
        with pytest.raises(TypeError, match="writes"):
            pipeline.add_data("x", lambda s: "x", reads=())
        with pytest.raises(TypeError, match="reads"):
            pipeline.add_data("x", lambda s: "x", reads=None, writes=())
        with pytest.raises(TypeError, match="reads"):
            Stage("data", "x", lambda s: "x")
        assert pipeline.stage_names == []


# -- dependency resolution --------------------------------------------------


class TestDagResolution:
    def test_wildcard_stages_resolve_to_chain(self):
        # Each stage reads its predecessor's write: a linear chain,
        # which the thread backend runs on the calling thread.
        threads = {}

        def stage(name):
            def run(s):
                threads[name] = threading.get_ident()
                return name
            return run

        pipeline = DecisionPipeline()
        pipeline.add_data("a", stage("a"), reads=(), writes=("a",))
        pipeline.add_governance("b", stage("b"),
                                reads=("a",), writes=("b",))
        pipeline.add_decision("c", stage("c"),
                              reads=("b",), writes=("c",))
        assert pipeline.resolved_dag() == {"a": (), "b": ("a",),
                                           "c": ("b",)}
        pipeline.run(executor="thread")
        assert threads == dict.fromkeys("abc", threading.get_ident())

    def test_contract_independence_drops_edges(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("load", lambda s: "x",
                          reads=(), writes=("x",))
        pipeline.add_governance("g1", lambda s: "a",
                                reads=("x",), writes=("a",))
        pipeline.add_governance("g2", lambda s: "b",
                                reads=("x",), writes=("b",))
        pipeline.add_decision("join", lambda s: "j",
                              reads=("a", "b"), writes=())
        dag = pipeline.resolved_dag()
        assert dag["g1"] == ("load",)
        assert dag["g2"] == ("load",)
        assert dag["join"] == ("g1", "g2")

    def test_write_after_read_orders_stages(self):
        # A later stage overwriting a key an earlier stage reads must
        # wait for that reader (no torn reads).
        pipeline = DecisionPipeline()
        pipeline.add_data("produce", lambda s: "p",
                          reads=(), writes=("x",))
        pipeline.add_analytics("consume", lambda s: "c",
                               reads=("x",), writes=("y",))
        pipeline.add_decision("overwrite", lambda s: "o",
                              reads=(), writes=("x",))
        dag = pipeline.resolved_dag()
        assert "consume" in dag["overwrite"]

    def test_layer_order_preserved_for_conflicting_contracts(self):
        order = []
        pipeline = DecisionPipeline()
        pipeline.add_decision("d", lambda s: order.append("d") or "d",
                              reads=("x",), writes=())
        pipeline.add_data("a", lambda s: order.append("a") or "a",
                          reads=(), writes=("x",))
        pipeline.run()
        assert order == ["a", "d"]

    def test_critical_path_math(self):
        durations = [1.0, 2.0, 3.0, 1.0]
        deps = [set(), {0}, {0}, {1, 2}]
        assert critical_path_seconds(durations, deps) == 5.0


# -- concurrent scheduling --------------------------------------------------


class TestScheduler:
    def test_independent_stages_run_concurrently(self):
        # The acceptance criterion: contract-independent governance
        # stages are in flight together -- all three must pass one
        # barrier, which no sequential schedule can get through.
        barrier = threading.Barrier(3, timeout=5)

        def gated(key):
            def stage(s):
                barrier.wait()
                s[key] = True
                return key
            return stage

        pipeline = DecisionPipeline("parallel governance")
        pipeline.add_data("load", lambda s: s.update(x=1) or "loaded",
                          reads=(), writes=("x",))
        for key in ("a", "b", "c"):
            pipeline.add_governance(f"g_{key}", gated(key),
                                    reads=("x",), writes=(key,))
        pipeline.add_decision("join",
                              lambda s: f"{s['a']}{s['b']}{s['c']}",
                              reads=("a", "b", "c"), writes=())
        state, report = pipeline.run(executor="thread")
        assert state["a"] and state["b"] and state["c"]
        assert report.critical_path_seconds < report.total_seconds

    def test_concurrent_stages_see_consistent_state(self):
        barrier = threading.Barrier(2, timeout=5)

        def worker(key):
            def stage(s):
                barrier.wait()  # proves both stages are in flight
                s[key] = s["x"] + 1
                return key
            return stage

        pipeline = DecisionPipeline()
        pipeline.add_data("load", lambda s: s.update(x=1) or "loaded",
                          reads=(), writes=("x",))
        pipeline.add_governance("g1", worker("a"),
                                reads=("x",), writes=("a",))
        pipeline.add_governance("g2", worker("b"),
                                reads=("x",), writes=("b",))
        state, _ = pipeline.run(executor="thread")
        assert state["a"] == state["b"] == 2

    def test_wildcard_pipeline_runs_sequentially(self):
        active = []
        overlaps = []

        def stage(name):
            def run(s):
                active.append(name)
                overlaps.append(len(active))
                time.sleep(0.005)
                active.remove(name)
                return name
            return run

        # A declared chain never overlaps.
        pipeline = DecisionPipeline()
        previous = ()
        for name in ("a", "b", "c"):
            pipeline.add_governance(name, stage(name),
                                    reads=previous, writes=(name,))
            previous = (name,)
        pipeline.run()
        assert max(overlaps) == 1

    def test_only_stages_ready_together_use_the_pool(self):
        # load is the lone ready stage, g1 and g2 are ready together,
        # and join is alone again once both have finished.
        caller = threading.get_ident()
        barrier = threading.Barrier(2, timeout=5)
        threads = {}

        def stage(name, key=None):
            def run(s):
                if key is not None:
                    barrier.wait()
                    s[key] = 1
                threads[name] = threading.get_ident()
                return name
            return run

        pipeline = DecisionPipeline()
        pipeline.add_data("load", stage("load"), reads=(),
                          writes=("x",))
        pipeline.add_governance("g1", stage("g1", "a"),
                                reads=("x",), writes=("a",))
        pipeline.add_governance("g2", stage("g2", "b"),
                                reads=("x",), writes=("b",))
        pipeline.add_decision("join", stage("join"),
                              reads=("a", "b"), writes=())
        pipeline.run(executor="thread")
        assert threads["load"] == threads["join"] == caller
        assert caller not in (threads["g1"], threads["g2"])
        assert threads["g1"] != threads["g2"]

    def test_serial_runs_the_lowest_ready_index_first(self):
        # a and c are both roots; b becomes ready after a and has the
        # lower index, so it runs before c.
        order = []

        def stage(name):
            def run(s):
                order.append(name)
                if name == "a":
                    s["x"] = 1
                return name
            return run

        pipeline = DecisionPipeline()
        pipeline.add_data("a", stage("a"), reads=(), writes=("x",))
        pipeline.add_governance("b", stage("b"), reads=("x",),
                                writes=())
        pipeline.add_governance("c", stage("c"), reads=(), writes=())
        pipeline.run(executor="serial")
        assert order == ["a", "b", "c"]

    @pytest.mark.parametrize("executor", ["thread", "serial"])
    def test_failing_inline_stage_cancels_the_rest(self, executor):
        caller = threading.get_ident()
        threads = {}

        def boom(s):
            threads["boom"] = threading.get_ident()
            raise ZeroDivisionError("division by zero")

        pipeline = DecisionPipeline()
        pipeline.add_data("ok", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        pipeline.add_governance("boom", boom, reads=("x",),
                                writes=("y",))
        pipeline.add_analytics("next", lambda s: "n", reads=("y",),
                               writes=("z",))
        pipeline.add_decision("last", lambda s: "l", reads=("z",),
                              writes=())
        with pytest.raises(StageFailure) as excinfo:
            pipeline.run(executor=executor)
        failure = excinfo.value
        assert threads["boom"] == caller
        assert failure.stage == "boom"
        assert str(failure) == ("stage 'boom' failed after 1 "
                                "attempt(s): division by zero")
        assert failure.secondary == []
        assert isinstance(failure.__cause__, ZeroDivisionError)
        assert failure.report.status_map() == {
            "ok": "ok", "boom": "failed", "next": "cancelled",
            "last": "cancelled"}
        assert [failure.report.record(name).error
                for name in ("next", "last")] == ["run aborted"] * 2


# -- failure policies -------------------------------------------------------


class TestFailurePolicies:
    def test_stage_raising_mid_run_aborts_with_partial_report(self):
        ran = []
        pipeline = DecisionPipeline()
        pipeline.add_data("ok", lambda s: ran.append("ok") or "ok",
                          reads=(), writes=("x",))
        pipeline.add_governance("boom",
                                lambda s: 1 / 0,
                                reads=("x",), writes=("y",))
        pipeline.add_decision("never",
                              lambda s: ran.append("never") or "n",
                              reads=("y",), writes=())
        with pytest.raises(StageFailure) as excinfo:
            pipeline.run()
        assert ran == ["ok"]
        failure = excinfo.value
        assert failure.stage == "boom"
        assert failure.report.record("boom").status == "failed"
        assert failure.report.record("ok").status == "ok"

    def test_skip_policy_lets_the_dag_proceed(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("bad", lambda s: 1 / 0,
                          reads=(), writes=("y",), on_error="skip")
        pipeline.add_decision("after", lambda s: "ran anyway",
                              reads=(), writes=())
        state, report = pipeline.run()
        assert report.record("bad").status == "skipped"
        assert report.record("bad").error is not None
        assert report.record("after").summary == "ran anyway"

    def test_fallback_policy_engages(self):
        pipeline = DecisionPipeline()
        pipeline.add_governance(
            "risky", lambda s: 1 / 0,
            reads=(), writes=("z",), on_error="fallback",
            fallback=lambda s: s.update(z=0) or "substituted")
        pipeline.add_decision("use", lambda s: f"z={s['z']}",
                              reads=("z",), writes=())
        state, report = pipeline.run()
        assert state["z"] == 0
        record = report.record("risky")
        assert record.status == "fallback"
        assert record.summary == "substituted"
        assert report.record("use").summary == "z=0"

    def test_fallback_obeys_the_contract_too(self):
        pipeline = DecisionPipeline()
        pipeline.add_governance(
            "risky", lambda s: 1 / 0,
            reads=(), writes=("z",), on_error="fallback",
            fallback=lambda s: s.update(other=1) or "bad fallback")
        with pytest.raises(ContractViolation):
            pipeline.run()

    def test_retries_then_success(self):
        calls = {"n": 0}

        def flaky(s):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            s["ok"] = True
            return "finally"

        pipeline = DecisionPipeline()
        pipeline.add_data("flaky", flaky,
                          reads=(), writes=("ok",), retries=5)
        state, report = pipeline.run()
        assert calls["n"] == 3
        assert report.record("flaky").retries == 2
        assert report.total_retries == 2

    def test_retry_exhaustion_applies_policy(self):
        calls = {"n": 0}

        def always_fails(s):
            calls["n"] += 1
            raise RuntimeError("permanent")

        pipeline = DecisionPipeline()
        pipeline.add_data("doomed", always_fails,
                          reads=(), writes=(), retries=2)
        with pytest.raises(StageFailure, match="3 attempt"):
            pipeline.run()
        assert calls["n"] == 3  # 1 + 2 retries

    def test_contract_violation_is_never_absorbed(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("sneaky",
                          lambda s: s.update(hidden=1) or "done",
                          reads=(), writes=(), on_error="skip",
                          retries=3)
        with pytest.raises(ContractViolation):
            pipeline.run()


# -- stage cache ------------------------------------------------------------


def _load(s):
    s["x"] = 1
    return "loaded"


def _g1(s):
    s["a"] = s["x"] + 1
    return "g1"


def _g2(s):
    s["b"] = s["x"] + 2
    return "g2"


def _decide(s):
    s["d"] = s["a"] * 10 + s["threshold"]
    return "decided"


def _build_cached_pipeline():
    pipeline = DecisionPipeline("cache")
    pipeline.add_data("load", _load, reads=(), writes=("x",))
    pipeline.add_governance("g1", _g1, reads=("x",), writes=("a",))
    pipeline.add_governance("g2", _g2, reads=("x",), writes=("b",))
    pipeline.add_decision("decide", _decide,
                          reads=("a", "threshold"), writes=("d",))
    return pipeline


class TestStageCache:
    def test_identical_rerun_replays_everything(self):
        cache = StageCache()
        initial = {"threshold": 5}
        state1, report1 = _build_cached_pipeline().run(initial,
                                                       cache=cache)
        state2, report2 = _build_cached_pipeline().run(initial,
                                                       cache=cache)
        assert report1.cache_hits == 0
        assert report2.cache_hits == 4
        assert state1 == state2
        assert [r.cache_hit for r in report2.records] == [True] * 4

    def test_without_stage_replays_outside_the_cone(self):
        # E1's ablation: removing g2 leaves load, g1 and decide with
        # unchanged upstream cones, so all replay from cache.
        cache = StageCache()
        initial = {"threshold": 5}
        _build_cached_pipeline().run(initial, cache=cache)
        ablated = _build_cached_pipeline().without_stage("g2")
        state, report = ablated.run(initial, cache=cache)
        assert len(report.records) == 3
        assert report.cache_hits == 3
        assert state["d"] == 25

    def test_removed_stage_cone_reexecutes(self):
        # Removing g1 invalidates decide (it consumed g1's output):
        # decide re-executes against the initial state's fallback "a".
        cache = StageCache()
        initial = {"threshold": 5, "a": 100}
        _build_cached_pipeline().run(initial, cache=cache)
        ablated = _build_cached_pipeline().without_stage("g1")
        state, report = ablated.run(initial, cache=cache)
        hits = {r.name: r.cache_hit for r in report.records}
        assert hits["load"] and hits["g2"]
        assert not hits["decide"]
        assert state["d"] == 1005  # recomputed from the initial "a"

    def test_changed_external_input_invalidates_reader_only(self):
        cache = StageCache()
        _build_cached_pipeline().run({"threshold": 5}, cache=cache)
        state, report = _build_cached_pipeline().run({"threshold": 7},
                                                     cache=cache)
        hits = {r.name: r.cache_hit for r in report.records}
        assert hits["load"] and hits["g1"] and hits["g2"]
        assert not hits["decide"]
        assert state["d"] == 27

    def test_changed_function_misses(self):
        cache = StageCache()
        pipeline = DecisionPipeline()
        pipeline.add_data("load", _load, reads=(), writes=("x",))
        pipeline.run(cache=cache)
        other = DecisionPipeline()
        other.add_data("load", lambda s: s.update(x=2) or "loaded v2",
                       reads=(), writes=("x",))
        state, report = other.run(cache=cache)
        assert report.cache_hits == 0
        assert state["x"] == 2


# -- observability ----------------------------------------------------------


class TestObservability:
    def test_report_exposes_wall_and_total_seconds(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("nap", lambda s: time.sleep(0.01) or "ok",
                          reads=(), writes=())
        _, report = pipeline.run()
        assert report.wall_seconds >= 0.01
        assert report.total_seconds >= 0.01
        rendered = report.render()
        assert "total stage time" in rendered
        assert "wall clock" in rendered
        assert "critical path" in rendered

    def test_report_records_the_dag(self):
        pipeline = _build_cached_pipeline()
        _, report = pipeline.run({"threshold": 5})
        assert dict(report.dag) == pipeline.resolved_dag()

    def test_tracer_sees_the_stage_lifecycle(self):
        tracer = CollectingTracer()
        pipeline = DecisionPipeline()
        pipeline.add_data("load", _load, reads=(), writes=("x",))
        pipeline.run(tracer=tracer)
        kinds = tracer.kinds()
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "stage_start" in kinds and "stage_end" in kinds

    def test_tracer_sees_cache_hits_and_errors(self):
        cache = StageCache()
        pipeline = DecisionPipeline()
        pipeline.add_data("load", _load, reads=(), writes=("x",))
        pipeline.run(cache=cache)
        tracer = CollectingTracer()
        pipeline.run(cache=cache, tracer=tracer)
        assert len(tracer.of_kind("cache_hit")) == 1

        tracer = CollectingTracer()
        failing = DecisionPipeline()
        failing.add_data("bad", lambda s: 1 / 0,
                         reads=(), writes=(), on_error="skip")
        failing.run(tracer=tracer)
        assert len(tracer.of_kind("stage_error")) == 1
        assert len(tracer.of_kind("stage_skip")) == 1

    def test_broken_tracer_does_not_break_the_run(self):
        class Hostile:
            def on_event(self, event):
                raise RuntimeError("observer bug")

        pipeline = DecisionPipeline()
        pipeline.add_data("load", _load, reads=(), writes=("x",))
        state, _ = pipeline.run(tracer=Hostile())
        assert state["x"] == 1

    def test_render_marks_cache_and_status(self):
        cache = StageCache()
        pipeline = DecisionPipeline()
        pipeline.add_data("load", _load, reads=(), writes=("x",))
        pipeline.add_governance("bad", lambda s: 1 / 0,
                                reads=(), writes=(), on_error="skip")
        pipeline.run(cache=cache)
        _, report = pipeline.run(cache=cache)
        rendered = report.render()
        assert "[cached]" in rendered
        assert "skipped" in rendered
        assert "cache hits: 1" in rendered
