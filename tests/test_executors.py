"""The pluggable executor backends: equivalence, shared memory,
pre-flight, determinism and cross-process telemetry.

The engine's core claim after the executor refactor is *backend
independence*: for a contract-correct pipeline, Serial, Thread and
Process backends produce identical final state (byte-identical by
content fingerprint), identical RunReport statuses, and identical
``engine.*`` outcome series — while the process backend additionally
ships large ndarrays zero-copy through shared memory and folds
worker-side metrics back into the parent registry.
"""

import concurrent.futures
import functools
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import textwrap
import types

import numpy as np
import pytest

from repro import DecisionPipeline, StageCache, StageFailure
from repro.core import RunDeadlineExceeded
from repro.core.cache import fingerprint
from repro.core.dag import Frontier
from repro.core.events import StageEvent
from repro.core.executors import (
    SHARE_MIN_BYTES,
    ExecutorError,
    ProcessExecutor,
    RemoteStageError,
    SerialExecutor,
    ThreadExecutor,
    _attach,
    _shareable,
    default_process_executor,
    resolve_executor,
)
from repro.core.faults import FaultInjector, attempt_jitter, attempt_seed
from repro.core.stage import ContractViolation
from repro.observability.metrics import MetricsRegistry, use_registry

BACKENDS = ("serial", "thread", "process")


@pytest.fixture(scope="module")
def process_executor():
    """One shared worker pool for the whole module (pool start-up is
    the expensive part; the tests exercise semantics, not cold start)."""
    executor = ProcessExecutor(max_workers=2)
    yield executor
    executor.close()


def backend_executor(name, process_executor):
    if name == "process":
        return process_executor
    return name


# -- module-level stage functions (picklable by reference) -------------------

N = 4000  # 4000 float64 = 32 KB < SHARE_MIN_BYTES; see LARGE below
LARGE = 16384  # 128 KB >= SHARE_MIN_BYTES


def s_load(view):
    view["x"] = np.arange(N, dtype=np.float64)
    return "loaded"


def s_load_large(view):
    view["x"] = np.arange(LARGE, dtype=np.float64)
    return "loaded"


def s_square(view):
    view["y"] = view["x"] ** 2
    return "squared", {"n": int(view["y"].size)}


def s_offset(view):
    view["z"] = view["x"] + 1.0
    return "offset"


def s_decide(view):
    view["total"] = float(view["y"].sum() + view["z"].sum())
    return "decided"


def s_delete(view):
    del view["scratch"]
    view["kept"] = True
    return "cleaned"


def s_ok(view):
    view["ok"] = True
    return "fine"


def s_fallback(view):
    view["ok"] = "fallback"
    return "held"


def s_rogue_write(view):
    view["undeclared"] = 1
    return "never"


def s_unpicklable_output(view):
    view["bad"] = threading.Lock()
    return "wrote a lock"


def s_malformed(view, *, outcome):
    view["ok"] = True
    return outcome


def s_raise_value_error(view):
    _ = view["x"]
    raise ValueError("deliberate remote failure")


def build_diamond(loader=s_load):
    """load -> (square, offset) -> decide: one fan-out, one join."""
    p = DecisionPipeline("executors diamond")
    p.add_data("load", loader, reads=(), writes=("x",))
    p.add_analytics("square", s_square, reads=("x",), writes=("y",))
    p.add_analytics("offset", s_offset, reads=("x",), writes=("z",))
    p.add_decision("decide", s_decide, reads=("y", "z"),
                   writes=("total",))
    return p


# -- resolution --------------------------------------------------------------


class TestResolveExecutor:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert isinstance(resolve_executor(), ThreadExecutor)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        assert isinstance(resolve_executor(), SerialExecutor)
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert isinstance(resolve_executor(), ProcessExecutor)

    def test_names(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("Process"), ProcessExecutor)

    def test_process_name_is_shared_singleton(self):
        assert (resolve_executor("process")
                is default_process_executor())

    def test_instance_passes_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            resolve_executor(42)

    def test_executor_kinds(self):
        assert SerialExecutor.kind == "serial"
        assert ThreadExecutor.kind == "thread"
        assert ProcessExecutor.kind == "process"


# -- backend equivalence -----------------------------------------------------


class TestBackendEquivalence:
    def run_all(self, build, process_executor, **kwargs):
        results = {}
        for backend in BACKENDS:
            with use_registry() as registry:
                state, report = build().run(
                    executor=backend_executor(backend,
                                              process_executor),
                    run_id="equiv", **kwargs)
            results[backend] = (state, report, registry)
        return results

    def test_identical_state_and_statuses(self, process_executor):
        results = self.run_all(build_diamond, process_executor)
        prints = {b: fingerprint(state)
                  for b, (state, _, _) in results.items()}
        assert len(set(prints.values())) == 1
        maps = {b: report.status_map()
                for b, (_, report, _) in results.items()}
        assert maps["serial"] == maps["thread"] == maps["process"]
        assert maps["serial"] == {"load": "ok", "square": "ok",
                                  "offset": "ok", "decide": "ok"}

    def test_identical_outcome_series(self, process_executor):
        results = self.run_all(build_diamond, process_executor)
        series = {}
        for backend, (_, _, registry) in results.items():
            snap = registry.snapshot()
            series[backend] = snap["engine.stage_outcomes_total"][
                "series"]
        assert (series["serial"] == series["thread"]
                == series["process"])

    def test_deletions_cross_the_boundary(self, process_executor):
        def build():
            p = DecisionPipeline("delete")
            p.add_data("clean", s_delete,
                       reads=("scratch",), writes=("scratch", "kept"))
            return p

        for backend in BACKENDS:
            state, report = build().run(
                {"scratch": "temp"},
                executor=backend_executor(backend, process_executor))
            assert "scratch" not in state
            assert state["kept"] is True
            assert report.status_map() == {"clean": "ok"}

    def test_details_and_summary_survive_the_boundary(
            self, process_executor):
        state, report = build_diamond().run(executor=process_executor)
        record = report.record("square")
        assert record.summary == "squared"
        assert record.details == {"n": N}


# -- shared memory -----------------------------------------------------------


class TestSharedMemory:
    def test_shareable_predicate(self):
        big = np.zeros(LARGE, dtype=np.float64)
        assert _shareable(big)
        assert not _shareable(np.zeros(8))  # too small
        assert not _shareable(big[::2])  # not C-contiguous
        assert not _shareable(np.array([object()], dtype=object))
        assert not _shareable([1.0] * LARGE)  # not an ndarray
        assert big.nbytes >= SHARE_MIN_BYTES

    def test_large_arrays_go_through_shared_memory(
            self, process_executor):
        with use_registry() as registry:
            state, _ = build_diamond(s_load_large).run(
                executor=process_executor)
        snap = registry.snapshot()
        shared = snap["engine.executor_shm_bytes_total"]["series"]
        assert shared and shared[0]["value"] >= LARGE * 8
        expected = np.arange(LARGE, dtype=np.float64)
        assert state["total"] == pytest.approx(
            float((expected ** 2).sum() + (expected + 1.0).sum()))

    def test_small_arrays_ship_by_value(self, process_executor):
        with use_registry() as registry:
            build_diamond(s_load).run(executor=process_executor)
        snap = registry.snapshot()
        # The family registers at session start, but nothing was shared.
        assert snap["engine.executor_shm_bytes_total"]["series"] == []

    def test_worker_arena_is_cleaned_up(self, process_executor):
        from multiprocessing import shared_memory

        session = process_executor.begin_run(
            build_diamond()._ordered_stages(), metrics=None)
        arena = session._arena
        handle = arena.share("k", np.zeros(LARGE))
        session.finish()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.name)


def _tracker_pid():
    """The pid of the resource tracker this process started or
    inherited by fork; ``None`` if neither (a spawned worker is handed
    its parent's tracker by file descriptor only)."""
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker._pid


def _tracker_pid_after_attach(handle):
    _, segment = _attach(handle)
    segment.close()
    return _tracker_pid()


# A fresh interpreter, so no tracker runs before the pool is made.  As
# in E27, the worker exists before the first segment does.
TRACKER_SCRIPT = textwrap.dedent("""
    import numpy as np
    from repro.core.executors import ProcessExecutor, _ShmArena
    from tests.test_executors import _tracker_pid, _tracker_pid_after_attach

    pool = ProcessExecutor(max_workers=1)._make_pool()
    arena = _ShmArena()
    try:
        before = pool.submit(_tracker_pid).result(timeout=60)
        handle = arena.share("x", np.zeros(16))
        after = pool.submit(_tracker_pid_after_attach, handle).result(
            timeout=60)
    finally:
        arena.close()
        pool.shutdown(wait=True)
    print(before == after)
""")


class TestResourceTracker:
    def test_first_attach_in_a_worker_starts_no_tracker(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        path = os.pathsep.join(filter(
            None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", TRACKER_SCRIPT], cwd=root,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "True"


# -- pre-flight --------------------------------------------------------------


class TestPreflight:
    def build_lambda_pipeline(self):
        p = DecisionPipeline("preflight")
        p.add_data("lam",  # noqa: RC022
                   lambda s: s.__setitem__("w", 1) or "ok",
                   reads=(), writes=("w",))
        p.add_analytics("fine", s_ok, reads=(), writes=("ok",))
        return p

    def test_unpicklable_stage_falls_back_to_parent(self):
        executor = ProcessExecutor(max_workers=1)
        try:
            with use_registry() as registry:
                state, report = self.build_lambda_pipeline().run(
                    executor=executor)
        finally:
            executor.close()
        assert state["w"] == 1 and state["ok"] is True
        assert set(report.status_map().values()) == {"ok"}
        snap = registry.snapshot()
        local = snap["engine.executor_local_stages_total"]["series"]
        assert local == [{"labels": {"reason": "unpicklable"},
                          "value": 1.0}]

    def test_on_unpicklable_error_names_the_stage(self):
        executor = ProcessExecutor(max_workers=1,
                                   on_unpicklable="error")
        try:
            with pytest.raises(ExecutorError, match="'lam'"):
                self.build_lambda_pipeline().run(executor=executor)
        finally:
            executor.close()

    def test_invalid_on_unpicklable_rejected(self):
        with pytest.raises(ValueError):
            ProcessExecutor(on_unpicklable="explode")

    def test_stage_obstacle_mentions_rc022(self):
        executor = ProcessExecutor(max_workers=1)
        stage = self.build_lambda_pipeline()._ordered_stages()[0]
        obstacle = executor.stage_obstacle(stage)
        assert "RC022" in obstacle
        executor.close()


# -- remote failure semantics ------------------------------------------------


class TestRemoteFailures:
    def test_remote_exception_reaches_the_policy(
            self, process_executor):
        p = DecisionPipeline("remote fail")
        p.add_data("load", s_load, reads=(), writes=("x",))
        p.add_analytics("boom", s_raise_value_error,
                        reads=("x",), writes=())
        with pytest.raises(StageFailure) as exc_info:
            p.run(executor=process_executor)
        cause = exc_info.value.__cause__
        assert isinstance(cause, RemoteStageError)
        assert cause.original_type == "ValueError"
        assert "deliberate remote failure" in str(cause)
        assert "ValueError" in (cause.remote_traceback or "")

    def test_remote_contract_violation_is_never_absorbed(
            self, process_executor):
        p = DecisionPipeline("remote violation")
        p.add_data("rogue", s_rogue_write,  # noqa: RC002
                   reads=(), writes=("declared",),
                   on_error="skip", retries=3)
        with use_registry() as registry:
            with pytest.raises(ContractViolation):
                p.run(executor=process_executor)
        # The worker-side violation counter crossed the boundary into
        # the parent registry via the metrics-delta merge.
        snap = registry.snapshot()
        series = snap["engine.contract_violations_total"]["series"]
        assert series == [{"labels": {"side": "write",
                                      "stage": "rogue"},
                           "value": 1.0}]

    def test_unpicklable_stage_output_is_a_clear_error(
            self, process_executor):
        p = DecisionPipeline("bad output")
        p.add_data("locksmith", s_unpicklable_output,
                   reads=(), writes=("bad",))
        with pytest.raises(StageFailure) as exc_info:
            p.run(executor=process_executor)
        cause = exc_info.value.__cause__
        assert isinstance(cause, ExecutorError)
        assert "cannot cross the process boundary" in str(cause)
        assert "'bad'" in str(cause)

    def test_broken_pool_raises_executor_error(self):
        executor = ProcessExecutor(max_workers=1)
        try:
            # Prime the lazy pool, then kill its worker.
            p = DecisionPipeline("prime")
            p.add_data("ok", s_ok, reads=(), writes=("ok",))
            p.run(executor=executor)
            for proc in executor._pool._processes.values():
                proc.terminate()
            with pytest.raises((StageFailure, ExecutorError)):
                p.run(executor=executor)
        finally:
            executor.close()

    def test_poll_waits_out_a_futures_timeout(self):
        # On Python 3.10 future.result(timeout=...) raises
        # concurrent.futures.TimeoutError, which is not the built-in
        # TimeoutError there; a poll that misses it fails every
        # attempt longer than one poll interval.
        class SlowFuture:
            polls = 0

            def result(self, timeout=None):
                self.polls += 1
                if self.polls == 1:
                    raise concurrent.futures.TimeoutError
                return b"payload"

        checkpoints = []
        control = types.SimpleNamespace(checkpoint=checkpoints.append)
        stage = types.SimpleNamespace(name="slow")
        future = SlowFuture()
        session = ProcessExecutor(max_workers=1).begin_run([])
        try:
            assert session._await(future, stage, control) == b"payload"
        finally:
            session.finish()
        assert future.polls == 2
        assert checkpoints == ["slow"]


# -- failure-policy matrix across backends -----------------------------------


def scenario_fail():
    faults = FaultInjector().fail("work")
    p = DecisionPipeline("policy fail")
    p.add_data("work", s_ok, reads=(), writes=("ok",))
    return p, faults, StageFailure, {"work": "failed"}


def scenario_skip():
    faults = FaultInjector().fail("work")
    p = DecisionPipeline("policy skip")
    p.add_data("work", s_ok, reads=(), writes=("ok",),
               on_error="skip")
    return p, faults, None, {"work": "skipped"}


def scenario_fallback():
    faults = FaultInjector().fail("work")
    p = DecisionPipeline("policy fallback")
    p.add_data("work", s_ok, reads=(), writes=("ok",),
               on_error="fallback", fallback=s_fallback)
    return p, faults, None, {"work": "fallback"}


def scenario_retry():
    faults = FaultInjector().fail("work", times=2)
    p = DecisionPipeline("policy retry")
    p.add_data("work", s_ok, reads=(), writes=("ok",),
               retries=2, backoff=0.0)
    return p, faults, None, {"work": "ok"}


def scenario_timeout():
    faults = FaultInjector().timeout("work")
    p = DecisionPipeline("policy timeout")
    p.add_data("work", s_ok, reads=(), writes=("ok",))
    return p, faults, StageFailure, {"work": "timed_out"}


SCENARIOS = {
    "fail": scenario_fail,
    "skip": scenario_skip,
    "fallback": scenario_fallback,
    "retry": scenario_retry,
    "timeout": scenario_timeout,
}


class TestFailurePolicyMatrix:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_policy_is_backend_independent(self, name,
                                           process_executor):
        outcomes = {}
        for backend in BACKENDS:
            pipeline, faults, raises, expected = SCENARIOS[name]()
            with use_registry() as registry:
                if raises is None:
                    _, report = pipeline.run(
                        tracer=faults, run_id="matrix",
                        executor=backend_executor(backend,
                                                  process_executor))
                else:
                    with pytest.raises(raises) as exc_info:
                        pipeline.run(
                            tracer=faults, run_id="matrix",
                            executor=backend_executor(
                                backend, process_executor))
                    report = exc_info.value.report
            snap = registry.snapshot()
            outcomes[backend] = (
                report.status_map(),
                snap["engine.stage_outcomes_total"]["series"],
                snap["engine.stage_attempts_total"]["series"],
            )
            assert report.status_map() == expected, backend
        assert (outcomes["serial"] == outcomes["thread"]
                == outcomes["process"])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_malformed_outcome_is_a_stage_error(self, backend,
                                                process_executor):
        # Regression: a malformed return escaped run() as a bare
        # TypeError/ValueError past every policy — after the state had
        # already committed, in the ("s", None) case.
        executor = backend_executor(backend, process_executor)

        def build(outcome, on_error):
            p = DecisionPipeline("malformed")
            p.add_data("bad", functools.partial(s_malformed,
                                                outcome=outcome),
                       reads=(), writes=("ok",), retries=1,
                       backoff=0.0, on_error=on_error)
            return p

        for outcome in (("s", None), ("s", {}, 3), ("s",)):
            cache = StageCache()
            with use_registry() as registry:
                state, report = build(outcome, "skip").run(
                    cache=cache, executor=executor)
            (record,) = report.records
            assert record.status == "skipped", outcome
            assert record.retries == 1
            assert "stage 'bad' returned" in record.error
            assert "ok" not in state  # nothing committed
            assert len(cache) == 0
            attempts = registry.counter("engine.stage_attempts_total")
            assert attempts.value(stage="bad") == 2

            with pytest.raises(StageFailure) as exc_info:
                build(outcome, "fail").run(executor=executor)
            assert isinstance(exc_info.value.__cause__, TypeError)
            assert "ok" not in exc_info.value.state

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadline_cancels_on_every_backend(self, backend,
                                               process_executor):
        faults = FaultInjector().delay("slow", 0.6)
        p = DecisionPipeline("policy deadline")
        p.add_data("prep", s_load, reads=(), writes=("x",))
        p.add_analytics("slow", s_square, reads=("x",),
                        writes=("y",))
        p.add_decision("after", s_offset, reads=("y",),
                       writes=("z",))
        with pytest.raises(RunDeadlineExceeded) as exc_info:
            p.run(tracer=faults, deadline=0.25,
                  executor=backend_executor(backend,
                                            process_executor))
        report = exc_info.value.report
        statuses = report.status_map()
        assert statuses["prep"] == "ok"
        assert statuses["slow"] == "cancelled"
        assert statuses["after"] == "cancelled"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stage_timeout_enforced_remotely(self, backend,
                                             process_executor):
        faults = FaultInjector().delay("slow", 0.4)
        p = DecisionPipeline("stage timeout")
        p.add_data("prep", s_load, reads=(), writes=("x",))
        p.add_analytics("slow", s_square, reads=("x",),
                        writes=("y",), timeout=0.1, on_error="skip")
        state, report = p.run(tracer=faults,
                              executor=backend_executor(
                                  backend, process_executor))
        assert report.status_map() == {"prep": "ok",
                                       "slow": "skipped"}
        assert "y" not in state  # the timed-out delta never committed


# -- determinism -------------------------------------------------------------


class TestDeterministicJitter:
    def test_seed_is_stable_and_process_independent(self):
        a = attempt_seed("run-1", "impute", 2)
        assert a == attempt_seed("run-1", "impute", 2)
        # Known-answer: sha256 is stable everywhere, so this value
        # pins cross-process agreement (hash() would be salted).
        import hashlib

        token = "run-1\x1fimpute\x1f2".encode()
        expected = int.from_bytes(
            hashlib.sha256(token).digest()[:8], "big")
        assert a == expected

    def test_seed_distinguishes_every_tuple_component(self):
        base = attempt_seed("r", "s", 1)
        assert base != attempt_seed("r2", "s", 1)
        assert base != attempt_seed("r", "s2", 1)
        assert base != attempt_seed("r", "s", 2)

    def test_jitter_range_and_determinism(self):
        values = [attempt_jitter("r", "s", a) for a in range(50)]
        assert all(0.5 <= v < 1.0 for v in values)
        assert values == [attempt_jitter("r", "s", a)
                          for a in range(50)]
        assert len(set(values)) > 40  # actually jittered

    def test_injector_captures_run_id(self):
        faults = FaultInjector()
        p = DecisionPipeline("capture")
        p.add_data("ok", s_ok, reads=(), writes=("ok",))
        p.run(tracer=faults, run_id="abc123")
        assert faults.run_id == "abc123"

    def test_jittered_delay_is_deterministic(self, monkeypatch):
        import repro.core.faults as faults_mod

        sleeps = []
        monkeypatch.setattr(faults_mod.time, "sleep", sleeps.append)
        for _ in range(2):
            faults = FaultInjector().delay("work", 0.01, jitter=0.05)
            p = DecisionPipeline("jitter")
            p.add_data("work", s_ok, reads=(), writes=("ok",))
            p.run(tracer=faults, run_id="fixed")
        assert len(sleeps) == 2
        assert sleeps[0] == sleeps[1]
        assert 0.01 <= sleeps[0] <= 0.06

    def test_report_carries_run_id(self):
        p = DecisionPipeline("ids")
        p.add_data("ok", s_ok, reads=(), writes=("ok",))
        _, report = p.run(run_id="fixed-id")
        assert report.run_id == "fixed-id"
        _, report = p.run()
        assert report.run_id and len(report.run_id) == 12

    def test_run_start_event_names_backend_and_run(self):
        faults = FaultInjector()
        p = DecisionPipeline("events")
        p.add_data("ok", s_ok, reads=(), writes=("ok",))
        p.run(tracer=faults, run_id="rid", executor="serial")
        start = faults.of_kind("run_start")[0]
        assert start.data["run_id"] == "rid"
        assert start.data["executor"] == "serial"


# -- cache, events and metrics plumbing --------------------------------------


class TestCrossProcessPlumbing:
    def test_cache_replays_across_backends(self, process_executor):
        cache = StageCache()
        build_diamond().run(cache=cache, executor="serial")
        _, report = build_diamond().run(cache=cache,
                                        executor=process_executor)
        assert report.cache_hits == 4

    def test_cache_merge(self):
        source, target = StageCache(), StageCache()
        build_diamond().run(cache=source, executor="serial")
        assert target.merge(source) == len(source) > 0
        assert target.merge(source) == 0  # idempotent
        _, report = build_diamond().run(cache=target,
                                        executor="serial")
        assert report.cache_hits == 4

    def test_cache_merge_rejects_junk(self):
        def assign(cache, entries):
            for key, entry in entries.items():
                cache[key] = entry

        for insert in (StageCache.merge, assign):
            cache = StageCache()
            with pytest.raises(TypeError, match="CacheEntry"):
                insert(cache, {"key": "not-an-entry"})
            assert len(cache) == 0

    def test_event_dict_roundtrip(self):
        event = StageEvent("stage_end", "impute", "governance",
                           seconds=1.5)
        clone = StageEvent.from_dict(
            pickle.loads(pickle.dumps(event.to_dict())))
        assert clone.kind == event.kind
        assert clone.stage == event.stage
        assert clone.layer == event.layer
        assert clone.timestamp == event.timestamp
        assert clone.monotonic == event.monotonic
        assert clone.data == {"seconds": 1.5}

    def test_metrics_merge_snapshot(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        worker.counter("c", "a counter").inc(3, stage="s")
        worker.gauge("g", "a gauge").set(7.5, node="n")
        hist = worker.histogram("h", "a histogram")
        hist.observe(0.004, stage="s")
        hist.observe(2.0, stage="s")
        parent.counter("c", "a counter").inc(2, stage="s")
        parent.histogram("h", "a histogram").observe(0.004, stage="s")
        parent.merge_snapshot(worker.snapshot())
        assert parent.get("c").value(stage="s") == 5.0
        assert parent.get("g").value(node="n") == 7.5
        merged = parent.get("h")
        assert merged.count(stage="s") == 3
        assert merged.sum(stage="s") == pytest.approx(2.008)
        snap = parent.snapshot()["h"]["series"][0]
        assert snap["min"] == pytest.approx(0.004)
        assert snap["max"] == pytest.approx(2.0)

    def test_merge_snapshot_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge_snapshot(
                {"m": {"type": "mystery", "series": []}})

    def test_merge_snapshot_bucket_mismatch(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        worker = MetricsRegistry()
        worker.histogram("h").observe(0.5)
        snap = worker.snapshot()
        snap["h"]["buckets"] = [1.0, 2.0]  # claim matching bounds
        with pytest.raises(ValueError, match="bucket"):
            parent.merge_snapshot(snap)


# -- the Frontier helper -----------------------------------------------------


class TestFrontier:
    def test_diamond_ordering(self):
        deps = [set(), {0}, {0}, {1, 2}]
        frontier = Frontier(deps)
        assert frontier.ready == [0]
        frontier.claim(0)
        assert frontier.ready == []  # claimed, not re-offered
        assert frontier.complete(0) == [1, 2]
        assert frontier.ready == [1, 2]
        frontier.claim(1)
        frontier.claim(2)
        assert frontier.complete(1) == []
        assert frontier.complete(2) == [3]
        assert frontier.unstarted() == [3]
        frontier.claim(3)
        assert frontier.complete(3) == []
        assert frontier.unstarted() == []

    def test_abandoned_dependents_stay_unstarted(self):
        deps = [set(), {0}]
        frontier = Frontier(deps)
        frontier.claim(0)
        unblocked = frontier.complete(0)  # run aborts: never claimed
        assert unblocked == [1]
        assert frontier.unstarted() == [1]


# -- environment default -----------------------------------------------------


class TestEnvironmentDefault:
    def test_pipeline_honors_repro_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        p = DecisionPipeline("env")
        p.add_data("ok", s_ok, reads=(), writes=("ok",))
        _, report = p.run()
        assert report.status_map() == {"ok": "ok"}
        monkeypatch.setenv("REPRO_EXECUTOR", "nonsense")
        with pytest.raises(ValueError):
            p.run()
        assert os.environ["REPRO_EXECUTOR"] == "nonsense"
