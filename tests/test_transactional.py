"""Transactional stage execution, bounded runs and fault injection.

The engine's isolation guarantee: one attempt's writes (and
deletions) commit to shared state atomically on success and are
discarded on any failure — so a failed, retried, skipped, timed-out
or cancelled attempt provably leaves zero partial writes behind.
These tests drive that guarantee through the
:class:`~repro.core.faults.FaultInjector`, and cover the cache's
tombstone / deep-copy semantics and the structural function
fingerprint that make cached reruns byte-identical to live ones.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.core import (
    DecisionPipeline,
    FaultInjector,
    RunDeadlineExceeded,
    StageCache,
    StageFailure,
    StageTimeout,
)
from repro.core.cache import _function_fingerprint, fingerprint
from repro.datatypes import RoadNetwork


def canonical(state):
    """Canonical bytes of a state dict (sorted keys) for equality."""
    return pickle.dumps([(k, state[k]) for k in sorted(state)])


# -- transactional commit ----------------------------------------------------


class TestTransactionalCommit:
    def test_failed_attempt_leaves_zero_partial_writes(self):
        def torn(s):
            s["partial_a"] = 1
            s["partial_b"] = 2
            raise RuntimeError("boom after writing")

        pipeline = DecisionPipeline()
        pipeline.add_data("seed", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        pipeline.add_governance("torn", torn, reads=(),
                                writes=("partial_a", "partial_b"))
        with pytest.raises(StageFailure) as excinfo:
            pipeline.run()
        # The failing attempt's buffered writes were discarded: the
        # state carried by the failure equals the never-ran baseline.
        assert excinfo.value.state == {"x": 1}

    def test_skipped_stage_leaves_state_untouched(self):
        def torn(s):
            s["junk"] = 123
            del s["keep"]
            raise RuntimeError("fails after write and delete")

        baseline = DecisionPipeline()
        baseline.add_data("seed", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        base_state, _ = baseline.run({"keep": "yes"})

        pipeline = DecisionPipeline()
        pipeline.add_data("seed", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        pipeline.add_governance("torn", torn, reads=(),
                                writes=("junk", "keep"),
                                on_error="skip")
        state, report = pipeline.run({"keep": "yes"})
        assert report.record("torn").status == "skipped"
        assert state == base_state == {"keep": "yes", "x": 1}

    def test_retry_sees_pre_attempt_state(self):
        observed = []

        def flaky(s):
            observed.append("scratch" in s)
            s["scratch"] = True
            if len(observed) == 1:
                raise RuntimeError("first attempt dies mid-write")
            s["out"] = "done"
            return "ok"

        pipeline = DecisionPipeline()
        pipeline.add_data("flaky", flaky, reads=(),
                          writes=("scratch", "out"), retries=2,
                          backoff=0)
        state, report = pipeline.run()
        # The retry must not see the first attempt's torn write.
        assert observed == [False, False]
        assert state == {"scratch": True, "out": "done"}
        assert report.record("flaky").retries == 1

    def test_fallback_does_not_see_primary_partial_writes(self):
        seen = {}

        def primary(s):
            s["z"] = "torn"
            raise RuntimeError("primary dies")

        def fallback(s):
            seen["z_visible"] = "z" in s
            s["z"] = "fallback value"
            return "substituted"

        pipeline = DecisionPipeline()
        pipeline.add_governance("risky", primary, reads=(),
                                writes=("z",), on_error="fallback",
                                fallback=fallback)
        state, report = pipeline.run()
        assert seen["z_visible"] is False
        assert state == {"z": "fallback value"}
        assert report.record("risky").status == "fallback"

    def test_committed_deletion_is_applied(self):
        pipeline = DecisionPipeline()
        pipeline.add_data("drop",
                          lambda s: s.pop("scratch") and "dropped",
                          reads=("scratch",), writes=("scratch",))
        state, _ = pipeline.run({"scratch": 1, "keep": 2})
        assert state == {"keep": 2}

    def test_read_your_writes_and_deletes_within_attempt(self):
        def stage(s):
            s["a"] = 10
            assert s["a"] == 10          # buffered write readable
            assert "a" in s
            del s["a"]
            assert "a" not in s          # buffered delete visible
            s["a"] = 11
            assert sorted(s) == ["a", "x"]
            assert len(s) == 2
            return "ok"

        pipeline = DecisionPipeline()
        pipeline.add_data("rw", stage, reads=("x",), writes=("a",))
        state, _ = pipeline.run({"x": 0})
        assert state == {"x": 0, "a": 11}

    def test_delete_of_missing_key_raises_keyerror(self):
        def stage(s):
            del s["nope"]

        pipeline = DecisionPipeline()
        pipeline.add_data("bad", stage, reads=(), writes=("nope",))
        with pytest.raises(StageFailure, match="nope"):
            pipeline.run()


# -- copy-on-read: defensive copies of read-only arrays ----------------------


def _build_mutating_reader_pipeline():
    """A reader stage that mutates a read-only array through an alias.

    This is exactly the in-place escape hatch the transaction layer
    cannot roll back (and the static analyzer flags as RC004): the
    alias points at the shared object, so ``arr *= 0`` bypasses the
    contract view's write check.
    """
    def seed(s):
        s["arr"] = np.arange(4.0)
        return "seeded"

    def reader(s):
        arr = s["arr"]
        arr *= 0.0  # noqa: RC004 -- deliberate torn write
        s["total"] = float(arr.sum())
        return "read"

    pipeline = DecisionPipeline("copy-on-read")
    pipeline.add_data("seed", seed, reads=(), writes=("arr",))
    pipeline.add_analytics("reader", reader, reads=("arr",),
                           writes=("total",))
    return pipeline


class TestCopyOnRead:
    def test_torn_write_without_flag(self):
        # Baseline: the escape hatch is real -- the shared array is
        # zeroed even though the reader never declared the write.
        state, _ = _build_mutating_reader_pipeline().run()
        assert state["arr"].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_copy_on_read_prevents_the_torn_write(self):
        state, _ = _build_mutating_reader_pipeline().run(
            copy_on_read=True)
        assert state["arr"].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert state["total"] == 0.0  # the stage saw its own copy

    def test_repeated_reads_see_the_same_copy(self):
        def seed(s):
            s["arr"] = np.arange(3.0)
            return "seeded"

        def reader(s):
            first = s["arr"]
            first += 1.0
            second = s["arr"]
            s["same"] = first is second
            s["sum"] = float(second.sum())
            return "read"

        pipeline = DecisionPipeline()
        pipeline.add_data("seed", seed, reads=(), writes=("arr",))
        pipeline.add_analytics("reader", reader, reads=("arr",),
                               writes=("same", "sum"))
        state, _ = pipeline.run(copy_on_read=True)
        assert state["same"] is True
        assert state["sum"] == 6.0       # the stage's view is coherent
        assert state["arr"].tolist() == [0.0, 1.0, 2.0]

    def test_declared_writes_are_not_copied(self):
        def seed(s):
            s["arr"] = np.arange(3.0)
            return "seeded"

        def owner(s):
            arr = s["arr"]
            arr *= 2.0
            s["arr"] = arr
            return "owned"

        pipeline = DecisionPipeline()
        pipeline.add_data("seed", seed, reads=(), writes=("arr",))
        pipeline.add_governance("owner", owner, reads=("arr",),
                                writes=("arr",))
        state, _ = pipeline.run(copy_on_read=True)
        assert state["arr"].tolist() == [0.0, 2.0, 4.0]

    def test_non_array_values_are_untouched(self):
        marker = object()

        def seed(s):
            s["obj"] = marker
            return "seeded"

        def reader(s):
            s["same"] = s["obj"] is marker
            return "read"

        pipeline = DecisionPipeline()
        pipeline.add_data("seed", seed, reads=(), writes=("obj",))
        pipeline.add_decision("reader", reader, reads=("obj",),
                              writes=("same",))
        state, _ = pipeline.run(copy_on_read=True)
        assert state["same"] is True


# -- cache: tombstones and deep-copied deltas --------------------------------


def _consume(s):
    s["total"] = sum(s["scratch"])
    del s["scratch"]
    return "consumed"


def _seed_scratch(s):
    s["scratch"] = [1, 2, 3]
    return "seeded"


def _build_deleting_pipeline():
    pipeline = DecisionPipeline("tombstones")
    pipeline.add_data("seed", _seed_scratch, reads=(),
                      writes=("scratch",))
    pipeline.add_governance("consume", _consume,
                            reads=("scratch",),
                            writes=("total", "scratch"))
    pipeline.add_decision("decide", lambda s: f"t={s['total']}",
                          reads=("total",), writes=())
    return pipeline


class TestCacheTombstones:
    def test_cached_rerun_replays_deletions(self):
        # Regression: the delta used to keep only still-present keys,
        # so a cached rerun of a deleting stage diverged from a live
        # run by resurrecting the deleted key.
        cache = StageCache()
        live, r1 = _build_deleting_pipeline().run(cache=cache)
        replayed, r2 = _build_deleting_pipeline().run(cache=cache)
        assert r1.cache_hits == 0
        assert r2.cache_hits == 3
        assert "scratch" not in replayed
        assert canonical(live) == canonical(replayed)

    def test_without_stage_ablation_identical_cached_vs_uncached(self):
        cache = StageCache()
        _build_deleting_pipeline().run(cache=cache)
        ablated = _build_deleting_pipeline().without_stage("decide")
        cold, _ = ablated.run()                   # no cache
        warm, report = ablated.run(cache=cache)   # full replay
        assert report.cache_hits == 2
        assert canonical(cold) == canonical(warm)


def _zeros():
    return {"arr": np.zeros(4)}


def _read_only():
    arr = np.zeros(4)
    arr.flags.writeable = False
    return {"arr": arr}


def _aliased():
    arr = np.zeros(4)
    return {"arr": arr, "alias": arr}


def _network():
    return {"net": RoadNetwork.grid(2, 2)}


def _lock():
    return {"value": threading.Lock()}


def _function():
    return {"value": lambda: 42}


def _content(state):
    """Comparable content of the isolation cases' values."""
    return {key: (value.tolist() if isinstance(value, np.ndarray)
                  else sorted((u, v, value.edge_length(u, v))
                              for u, v in value.edges()))
            for key, value in state.items()}


def _poison(state):
    """A later stage mutating every replayed value in place."""
    for value in state.values():
        if isinstance(value, np.ndarray):
            value[:] = 999.0  # raises if the value thawed read-only
        elif isinstance(value, RoadNetwork):
            value.set_edge_attribute((0, 0), (0, 1), "length", 999.0)


def _producer(make):
    def produce(s):
        for key, value in make().items():
            s[key] = value
        return "produced"

    pipeline = DecisionPipeline(make.__name__)
    pipeline.add_data("produce", produce, reads=(),
                      writes=tuple(make()))
    return pipeline


class TestCacheIsolation:
    def test_later_mutation_cannot_poison_replayed_delta(self):
        # Regression: deltas were replayed by reference, so one run
        # mutating a replayed array corrupted every future replay.
        # Each replay thaws a fresh copy of the record: writeable
        # (protocol 4), with aliasing inside the delta preserved, and
        # the same holds for the records a stream tick replays.
        for make in (_zeros, _read_only, _aliased, _network):
            cache = StageCache()
            _producer(make).run(cache=cache)
            session = _producer(make).stream({"t": 0})
            session.tick()
            for number in range(1, 3):
                for state, report in (
                        _producer(make).run(cache=cache),
                        session.tick(changed={"t": number})):
                    assert report.cache_hits == 1, make.__name__
                    state = {k: v for k, v in state.items() if k != "t"}
                    assert _content(state) == _content(make())
                    if "alias" in state:
                        assert state["alias"] is state["arr"]
                    _poison(state)  # a later stage mutating in place

    def test_uncopyable_delta_demotes_stage_to_uncacheable(self):
        # A lock cannot be pickled; neither can a lambda (which the
        # old deep-copied records shared by reference).
        for make in (_lock, _function):
            cache = StageCache()
            state1, _ = _producer(make).run(cache=cache)
            assert cache.misses == 1  # the stage is keyed and looked up
            assert len(cache) == 0  # record demoted, nothing cached
            state2, report = _producer(make).run(cache=cache)
            assert report.cache_hits == 0  # re-executed, not replayed
            assert state2["value"] is not state1["value"]

            session = _producer(make).stream({"t": 0})
            session.tick()
            ticked, report = session.tick(changed={"t": 1})
            assert report.cache_hits == 0
            assert report.status_map() == {"produce": "ok"}
            scratch, _ = _producer(make).run({"t": 1})
            assert set(ticked) == set(scratch) == {"t", "value"}
            assert type(ticked["value"]) is type(scratch["value"])


# -- fingerprint stability ---------------------------------------------------

_NESTED_SOURCE = """
def outer(s):
    s["y"] = sorted(s["xs"], key=lambda v: (v % 3, v))
    return "sorted"
"""


def _compile_nested():
    namespace = {}
    exec(compile(_NESTED_SOURCE, "<src>", "exec"), namespace)
    return namespace["outer"]


class TestFingerprintStability:
    def test_identical_functions_with_nested_code_share_fingerprint(self):
        # Regression: repr(co_consts) embedded the nested lambda's
        # memory address, so separately compiled but identical
        # functions never shared a cache key.
        f1, f2 = _compile_nested(), _compile_nested()
        assert f1 is not f2
        assert f1.__code__ is not f2.__code__
        assert (_function_fingerprint(f1)
                == _function_fingerprint(f2))

    def test_recompiled_identical_stage_hits_the_cache(self):
        cache = StageCache()

        def build(function):
            pipeline = DecisionPipeline("recompiled")
            pipeline.add_data("sort", function, reads=("xs",),
                              writes=("y",))
            return pipeline

        initial = {"xs": [5, 3, 1, 4]}
        build(_compile_nested()).run(initial, cache=cache)
        _, report = build(_compile_nested()).run(initial, cache=cache)
        assert report.cache_hits == 1

    def test_different_nested_lambda_changes_fingerprint(self):
        other = _NESTED_SOURCE.replace("v % 3", "v % 5")
        namespace = {}
        exec(compile(other, "<src>", "exec"), namespace)
        assert (_function_fingerprint(_compile_nested())
                != _function_fingerprint(namespace["outer"]))

    def test_unsortable_dict_fingerprint_is_order_independent(self):
        a = {1: "int first", "k": 2}        # int/str keys: unsortable
        b = {"k": 2, 1: "int first"}
        with pytest.raises(TypeError):
            sorted(a.items())
        assert fingerprint(a) == fingerprint(b)

    def test_mixed_set_fingerprint_is_order_independent(self):
        assert (fingerprint({1, "a", (2, 3)})
                == fingerprint({(2, 3), "a", 1}))


# -- timeouts, deadlines, cancellation, backoff ------------------------------


class TestBoundedExecution:
    def test_injected_delay_trips_stage_timeout(self):
        faults = FaultInjector().delay("slow", 0.08)

        def slow(s):
            s["out"] = 1  # state access: cooperative checkpoint
            return "done"

        pipeline = DecisionPipeline()
        pipeline.add_data("slow", slow, reads=(), writes=("out",),
                          timeout=0.02, backoff=0)
        state, _ = pipeline.run()  # no injector: comfortably in budget
        assert state == {"out": 1}

        # with the injector attached the delay overruns the timeout
        with pytest.raises(StageFailure, match="timed out") as excinfo:
            pipeline.run(tracer=faults)
        assert faults.injected == 1
        assert excinfo.value.report.record("slow").status == "timed_out"
        assert excinfo.value.state == {}  # nothing committed

    def test_timeout_then_clean_retry_succeeds(self):
        faults = FaultInjector().timeout("flaky")
        pipeline = DecisionPipeline()
        pipeline.add_data("flaky", lambda s: s.update(ok=1) or "ok",
                          reads=(), writes=("ok",), retries=1,
                          backoff=0)
        state, report = pipeline.run(tracer=faults)
        assert state == {"ok": 1}
        record = report.record("flaky")
        assert record.status == "ok"
        assert record.retries == 1
        kinds = faults.kinds()
        assert "fault_injected" in kinds
        assert "stage_retry" in kinds

    def test_injected_timeout_with_skip_policy(self):
        faults = FaultInjector().timeout("hang")
        pipeline = DecisionPipeline()
        pipeline.add_governance("hang",
                                lambda s: s.update(h=1) or "ok",
                                reads=(), writes=("h",),
                                on_error="skip", backoff=0)
        pipeline.add_decision("after", lambda s: "ran",
                              reads=(), writes=())
        state, report = pipeline.run(tracer=faults)
        assert "h" not in state
        assert report.record("hang").status == "skipped"
        assert report.record("after").summary == "ran"
        assert len(faults.of_kind("stage_timeout")) == 1

    def test_run_deadline_cancels_remaining_stages(self):
        faults = FaultInjector().delay("first", 0.1)

        def stage(key):
            def run(s):
                s[key] = True
                return key
            return run

        pipeline = DecisionPipeline()
        pipeline.add_data("first", stage("a"), reads=(), writes=("a",))
        pipeline.add_governance("second", stage("b"),
                                reads=("a",), writes=("b",))
        pipeline.add_decision("third", stage("c"),
                              reads=("b",), writes=("c",))
        with pytest.raises(RunDeadlineExceeded) as excinfo:
            pipeline.run(tracer=faults, deadline=0.03)
        report = excinfo.value.report
        assert report.deadline_seconds == 0.03
        statuses = {r.name: r.status for r in report.records}
        # "first" was in flight when the deadline hit: cancelled at
        # its next state access, nothing committed.  The rest never
        # started and are recorded as cancelled for the audit trail.
        assert statuses["first"] == "cancelled"
        assert statuses["second"] == "cancelled"
        assert statuses["third"] == "cancelled"
        assert excinfo.value.state == {}
        assert report.cancelled_count == 3
        assert "deadline" in report.render()

    def test_failure_cancels_in_flight_stages(self):
        barrier = threading.Barrier(2, timeout=5)

        def doomed(s):
            barrier.wait()
            raise RuntimeError("fails while peer is in flight")

        def slow(s):
            s["partial"] = 1     # buffered, must never commit
            barrier.wait()
            for _ in range(500):  # state accesses = cancel points
                _ = s["x"]
                time.sleep(0.005)
            return "survived"

        pipeline = DecisionPipeline()
        pipeline.add_data("load", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        pipeline.add_governance("doomed", doomed,
                                reads=("x",), writes=("d",),
                                backoff=0)
        pipeline.add_governance("slow", slow,
                                reads=("x",), writes=("partial",))
        pipeline.add_decision("never", lambda s: "n",
                              reads=("d", "partial"), writes=())
        with pytest.raises(StageFailure) as excinfo:
            pipeline.run()
        failure = excinfo.value
        assert failure.stage == "doomed"
        assert failure.secondary == []
        # The in-flight stage aborted cooperatively, committed
        # nothing, and the never-started stage is in the audit trail.
        assert failure.state == {"x": 1}
        statuses = {r.name: r.status for r in failure.report.records}
        assert statuses["slow"] == "cancelled"
        assert statuses["never"] == "cancelled"

    def test_concurrent_secondary_failures_are_kept(self):
        barrier = threading.Barrier(2, timeout=5)

        def failer(name):
            def run(s):
                barrier.wait()
                raise RuntimeError(f"{name} dies")
            return run

        pipeline = DecisionPipeline()
        pipeline.add_governance("f1", failer("f1"),
                                reads=(), writes=("a",), backoff=0)
        pipeline.add_governance("f2", failer("f2"),
                                reads=(), writes=("b",), backoff=0)
        with pytest.raises(StageFailure) as excinfo:
            pipeline.run(executor="thread")
        failure = excinfo.value
        # Both failures happened; the second is attached, not dropped.
        assert len(failure.secondary) == 1
        assert isinstance(failure.secondary[0], StageFailure)
        assert {failure.stage, failure.secondary[0].stage} == {"f1",
                                                               "f2"}

    # Both backoff tests observe the scheduler's sleep calls through a
    # monkeypatched recorder instead of asserting on wall-clock time —
    # see tests/README.md (loaded CI runners make elapsed-time bounds
    # flaky, and the recorded delays pin the *exact* pause schedule).

    def test_backoff_spaces_retry_attempts(self, monkeypatch):
        from repro.core import scheduler as scheduler_module

        pauses = []
        monkeypatch.setattr(scheduler_module.time, "sleep",
                            pauses.append)
        faults = FaultInjector().fail("flaky", times=3)
        pipeline = DecisionPipeline()
        pipeline.add_data("flaky", lambda s: "ok", reads=(),
                          writes=(), retries=3, backoff=0.04)
        _, report = pipeline.run(tracer=faults)
        assert report.record("flaky").retries == 3
        # Jitter keeps each pause in [50%, 100%] of 0.04 * 2**(n-1).
        assert len(pauses) == 3
        for attempt, pause in enumerate(pauses, start=1):
            nominal = 0.04 * 2 ** (attempt - 1)
            assert 0.5 * nominal <= pause <= nominal

    def test_zero_backoff_disables_the_pause(self, monkeypatch):
        from repro.core import scheduler as scheduler_module

        pauses = []
        monkeypatch.setattr(scheduler_module.time, "sleep",
                            pauses.append)
        faults = FaultInjector().fail("flaky", times=3)
        pipeline = DecisionPipeline()
        pipeline.add_data("flaky", lambda s: "ok", reads=(),
                          writes=(), retries=3, backoff=0)
        pipeline.run(tracer=faults)
        assert pauses == []


# -- the FaultInjector itself ------------------------------------------------


class TestFaultInjector:
    def test_scripted_failures_consume_in_fifo_order(self):
        faults = (FaultInjector()
                  .fail("s", exc=ValueError("first"))
                  .fail("s", exc=KeyError("second")))
        assert faults.pending("s") == 2
        pipeline = DecisionPipeline()
        pipeline.add_data("s", lambda s: "ok", reads=(), writes=(),
                          retries=2, backoff=0)
        _, report = pipeline.run(tracer=faults)
        assert faults.pending() == 0
        assert faults.injected == 2
        retries = faults.of_kind("stage_retry")
        assert "first" in retries[0].data["error"]
        assert "second" in retries[1].data["error"]
        assert report.record("s").retries == 2

    def test_injector_validates_arguments(self):
        faults = FaultInjector()
        with pytest.raises(ValueError):
            faults.fail("s", times=0)
        with pytest.raises(TypeError):
            faults.fail("s", exc="not an exception")
        with pytest.raises(ValueError):
            faults.delay("s", -1)

    def test_untargeted_stages_run_untouched(self):
        faults = FaultInjector().fail("other")
        pipeline = DecisionPipeline()
        pipeline.add_data("mine", lambda s: s.update(x=1) or "ok",
                          reads=(), writes=("x",))
        state, _ = pipeline.run(tracer=faults)
        assert state == {"x": 1}
        assert faults.injected == 0
        assert faults.pending("other") == 1

    def test_injected_timeout_is_a_stage_timeout(self):
        faults = FaultInjector().timeout("s")
        pipeline = DecisionPipeline()
        pipeline.add_data("s", lambda s: "ok", reads=(), writes=(),
                          backoff=0)
        with pytest.raises(StageFailure) as excinfo:
            pipeline.run(tracer=faults)
        assert isinstance(excinfo.value.__cause__, StageTimeout)
        assert excinfo.value.report.record("s").status == "timed_out"
