"""The concurrency analyzer: RC030-RC034 fixtures, CLI and self-check.

One positive fixture and at least one near-miss per rule (file:line
asserted in text and JSON), the PR-7 regression (reverting the
metered LRU's ``publish`` locking must resurface RC031 at the exact
line), the ruff-style noqa code-list forms, the SARIF / baseline CLI
paths, and a self-check that ``src`` + ``examples`` lint clean under
``--select RC03``.
"""

import json
import pickle
from pathlib import Path

from repro.analysis import analyze_paths, analyze_source
from repro.lint import main as lint_main

REPO = Path(__file__).resolve().parent.parent


def codes(findings):
    return [finding.code for finding in findings]


def only(findings, code):
    return [finding for finding in findings if finding.code == code]


def line_of(source, marker):
    for number, line in enumerate(source.splitlines(), start=1):
        if marker in line:
            return number
    raise AssertionError(f"marker {marker!r} not in fixture")


def rc03(source, **kwargs):
    return analyze_source(source, select=["RC03"], **kwargs)


# -- RC030 unlocked-shared-write ---------------------------------------------


class TestUnlockedSharedWrite:
    def test_positive(self):
        src = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def inc(self):
        with self._lock:
            self._n += 1

    def reset(self):
        self._n = 0  # MARK
"""
        findings = only(rc03(src), "RC030")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "error"
        assert "_n" in findings[0].message
        assert "reset" in findings[0].message

    def test_all_writes_locked_is_clean(self):
        src = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0

    def inc(self):
        with self._lock:
            self._n += 1

    def reset(self):
        with self._lock:
            self._n = 0
"""
        assert only(rc03(src), "RC030") == []

    def test_different_but_correct_lock_is_clean(self):
        # Two locks, each attribute consistently under its own.
        src = """
import threading

class Pair:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()
        self._a = 0
        self._b = 0

    def bump_a(self):
        with self._a_lock:
            self._a += 1

    def set_a(self):
        with self._a_lock:
            self._a = 0

    def set_b(self):
        with self._b_lock:
            self._b = 0
"""
        assert only(rc03(src), "RC030") == []

    def test_constructor_helper_is_exempt(self):
        # _init_caches is called only from __init__/__setstate__:
        # its unguarded writes are construction, not racing.
        src = """
import threading

class Snap:
    def __init__(self):
        self._init_caches()

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_caches()

    def _init_caches(self):
        self._lock = threading.Lock()
        self._snapshot = None

    def refresh(self):
        with self._lock:
            self._snapshot = ()
"""
        assert only(rc03(src), "RC030") == []

    def test_helper_also_called_from_hot_path_not_exempt(self):
        src = """
import threading

class Snap:
    def __init__(self):
        self._lock = threading.Lock()
        self._reset()

    def _reset(self):
        self._snapshot = None  # MARK

    def refresh(self):
        self._reset()
        with self._lock:
            self._snapshot = ()
"""
        findings = only(rc03(src), "RC030")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]


# -- RC031 unguarded read-modify-write ---------------------------------------


RMW_PRELUDE = """
import threading

class Flusher:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0
        self._published = 0

    def record(self):
        with self._lock:
            self._hits += 1

    def clear(self):
        with self._lock:
            self._hits = 0
            self._published = 0
"""


class TestUnguardedRmw:
    def test_positive_watermark_advance(self):
        src = RMW_PRELUDE + """
    def publish(self):
        delta = self._hits - self._published
        self._published = self._hits  # MARK
        return delta
"""
        findings = only(rc03(src), "RC031")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "error"
        assert "_published" in findings[0].message

    def test_positive_augmented_assignment(self):
        src = RMW_PRELUDE + """
    def sneak(self):
        self._hits += 1  # MARK
"""
        findings = only(rc03(src), "RC031")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_rmw_under_lock_is_clean(self):
        src = RMW_PRELUDE + """
    def publish(self):
        with self._lock:
            delta = self._hits - self._published
            self._published = self._hits
        return delta
"""
        assert only(rc03(src), "RC031") == []

    def test_unguarded_attrs_are_clean(self):
        # Attributes never touched under any lock are out of scope.
        src = RMW_PRELUDE + """
    def tune(self):
        self._config = getattr(self, "_config", 0) + 1
"""
        assert only(rc03(src), "RC031") == []


# -- RC032 expensive call under lock -----------------------------------------


class TestExpensiveCallUnderLock:
    def test_positive_dijkstra_under_lock(self):
        src = """
import threading

class BadCache:
    def __init__(self, network):
        self.network = network
        self._lock = threading.Lock()
        self._cache = {}

    def distances(self, node):
        with self._lock:
            if node not in self._cache:
                self._cache[node] = self.network.dijkstra_array(node)  # MARK
            return self._cache[node]
"""
        findings = only(rc03(src), "RC032")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "dijkstra_array" in findings[0].message
        assert "_lock" in findings[0].message

    def test_positive_sleep_under_lock(self):
        src = """
import threading
import time

class Poller:
    def __init__(self):
        self._lock = threading.Lock()
        self._seen = 0

    def poll(self):
        with self._lock:
            time.sleep(0.1)  # MARK
            self._seen += 1
"""
        findings = only(rc03(src), "RC032")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_matcher_idiom_is_clean(self):
        # Probe under the lock, compute outside, install under the
        # lock -- the exact shape the fixed matcher LRU uses.
        src = """
import threading

class GoodCache:
    def __init__(self, network):
        self.network = network
        self._lock = threading.Lock()
        self._cache = {}

    def distances(self, node):
        with self._lock:
            entry = self._cache.get(node)
        if entry is not None:
            return entry
        distances = self.network.dijkstra_array(node)
        with self._lock:
            self._cache[node] = distances
        return distances
"""
        assert only(rc03(src), "RC032") == []

    def test_cheap_call_under_lock_is_clean(self):
        src = """
import threading

class Fine:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []

    def add(self, item):
        with self._lock:
            self._items.append(item)
            self._items.sort()
"""
        assert only(rc03(src), "RC032") == []


# -- RC033 unguarded lazy init -----------------------------------------------


class TestUnguardedLazyInit:
    def test_positive_is_none_test(self):
        src = """
import threading

class Lazy:
    def __init__(self):
        self._lock = threading.Lock()
        self._index = None

    def index(self):
        if self._index is None:  # MARK
            self._index = object()
        return self._index
"""
        findings = only(rc03(src), "RC033")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "_index" in findings[0].message

    def test_positive_falsy_test(self):
        src = """
import threading

class Lazy:
    def __init__(self):
        self._lock = threading.Lock()
        self._cache = {}

    def cache(self):
        if not self._cache:  # MARK
            self._cache = {"warm": True}
        return self._cache
"""
        findings = only(rc03(src), "RC033")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_locked_lazy_init_is_clean(self):
        src = """
import threading

class Lazy:
    def __init__(self):
        self._lock = threading.Lock()
        self._index = None

    def index(self):
        with self._lock:
            if self._index is None:
                self._index = object()
            return self._index
"""
        assert only(rc03(src), "RC033") == []

    def test_double_checked_idiom_is_clean(self):
        # The repo idiom: unguarded fast-path read of an atomically
        # installed object (into a local), locked re-check + build.
        src = """
import threading

class Lazy:
    def __init__(self):
        self._lock = threading.Lock()
        self._snapshot = None

    def snapshot(self):
        snapshot = self._snapshot
        if snapshot is not None:
            return snapshot
        with self._lock:
            snapshot = self._snapshot
            if snapshot is None:
                snapshot = object()
                self._snapshot = snapshot
            return snapshot
"""
        assert only(rc03(src), "RC033") == []

    def test_lockless_class_is_out_of_scope(self):
        src = """
class Lazy:
    def __init__(self):
        self._index = None

    def index(self):
        if self._index is None:
            self._index = object()
        return self._index
"""
        assert only(rc03(src), "RC033") == []


# -- RC034 lock in pickled state ---------------------------------------------


class TestLockInPickledState:
    def test_positive_no_getstate(self):
        src = """
import threading

class Unpicklable:
    def __init__(self):
        self._lock = threading.Lock()  # MARK
        self._data = {}
"""
        findings = only(rc03(src), "RC034")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "Unpicklable" in findings[0].message

    def test_positive_getstate_keeps_lock(self):
        src = """
import threading

class Leaky:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}

    def __getstate__(self):  # MARK
        return self.__dict__.copy()
"""
        findings = only(rc03(src), "RC034")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "_lock" in findings[0].message

    def test_getstate_popping_lock_is_clean(self):
        src = """
import threading

class Clean:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
"""
        assert only(rc03(src), "RC034") == []

    def test_selective_literal_state_is_clean(self):
        src = """
import threading

class Selective:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}

    def __getstate__(self):
        return {"_data": self._data}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
"""
        assert only(rc03(src), "RC034") == []

    def test_subclass_super_then_pop_is_clean(self):
        src = """
import threading

class Base:
    def __init__(self):
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

class Child(Base):
    def __init__(self):
        super().__init__()
        self._plans_lock = threading.Lock()

    def __getstate__(self):
        state = super().__getstate__()
        state.pop("_plans_lock", None)
        return state
"""
        assert only(rc03(src), "RC034") == []


# -- the PR-7 regression shape -----------------------------------------------


class TestPr7Regression:
    def test_reverted_publish_cache_metrics_resurfaces(self):
        """Un-fixing the metered LRU's metrics flush (shared by the
        matcher and the router) must yield RC031 at the exact
        watermark-advance lines."""
        source = (REPO / "src" / "repro" / "_lru.py").read_text(
            encoding="utf-8")
        fixed = """        with self._lock:
            hits = self._hits - self._published_hits
            misses = self._misses - self._published_misses
            if not hits and not misses:
                return
            self._published_hits = self._hits
            self._published_misses = self._misses"""
        reverted = """        hits = self._hits - self._published_hits
        misses = self._misses - self._published_misses
        if not hits and not misses:
            return
        self._published_hits = self._hits
        self._published_misses = self._misses"""
        assert fixed in source, "LRU flush no longer matches"
        broken = source.replace(fixed, reverted)
        findings = only(rc03(broken, path="reverted.py"), "RC031")
        expected = [
            line_of(broken, "self._published_hits = self._hits"),
            line_of(broken, "self._published_misses = self._misses"),
        ]
        assert [f.line for f in findings] == expected
        # ... and the pristine file stays clean.
        assert rc03(source, path="original.py") == []


# -- noqa code lists ---------------------------------------------------------


NOQA_BODY = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()  # noqa: RC034 -- test local
        self._n = 0

    def inc(self):
        with self._lock:
            self._n += 1

    def reset(self):
        self._n = 0{suffix}
"""


class TestNoqaLists:
    def test_comma_separated_codes(self):
        src = NOQA_BODY.format(suffix="  # noqa: RC030,RC099")
        assert only(rc03(src), "RC030") == []

    def test_whitespace_separated_codes(self):
        src = NOQA_BODY.format(suffix="  # noqa: RC099 RC030")
        assert only(rc03(src), "RC030") == []

    def test_justification_suffix_not_parsed_as_codes(self):
        src = NOQA_BODY.format(
            suffix="  # noqa: RC030 -- reset is test-only")
        assert only(rc03(src), "RC030") == []

    def test_other_code_does_not_suppress(self):
        src = NOQA_BODY.format(suffix="  # noqa: RC031,RC032")
        assert len(only(rc03(src), "RC030")) == 1

    def test_case_insensitive(self):
        src = NOQA_BODY.format(suffix="  # NOQA: rc030")
        assert only(rc03(src), "RC030") == []


# -- CLI: seeded fixture, SARIF, baseline ------------------------------------


SEEDED = """
import threading
import time

class Shared:
    def __init__(self):
        self._lock = threading.Lock()  # SEED-RC034
        self._snapshot = None
        self._hits = 0
        self._published = 0

    def record(self):
        with self._lock:
            self._hits += 1
            self._published = 0

    def reset(self):
        self._hits = 0  # SEED-RC030

    def publish(self):
        self._published = self._hits  # SEED-RC031

    def snapshot(self):
        if self._snapshot is None:  # SEED-RC033
            self._snapshot = object()
        return self._snapshot

    def wait_for_quiet(self):
        with self._lock:
            time.sleep(0.01)  # SEED-RC032
"""

SEEDS = {
    "RC030": "# SEED-RC030",
    "RC031": "# SEED-RC031",
    "RC032": "# SEED-RC032",
    "RC033": "# SEED-RC033",
    "RC034": "# SEED-RC034",
}


class TestCli:
    def test_seeded_violations_text_and_json(self, tmp_path, capsys):
        fixture = tmp_path / "seeded.py"
        fixture.write_text(SEEDED, encoding="utf-8")
        report_path = tmp_path / "report.json"

        exit_code = lint_main([str(fixture), "--select", "RC03"])
        text = capsys.readouterr().out
        assert exit_code == 1  # RC030/RC031 are errors

        exit_code = lint_main([str(fixture), "--select", "RC03",
                               "--format=json",
                               "--output", str(report_path)])
        capsys.readouterr()
        assert exit_code == 1
        report = json.loads(report_path.read_text(encoding="utf-8"))

        by_code = {}
        for finding in report["findings"]:
            by_code.setdefault(finding["code"], []).append(finding)
        for code, marker in SEEDS.items():
            expected_line = line_of(SEEDED, marker)
            lines = [f["line"] for f in by_code.get(code, [])]
            assert expected_line in lines, (
                f"{code} not reported at line {expected_line}: "
                f"{report['findings']}")
            expected_text = f"{fixture}:{expected_line}:"
            assert any(expected_text in line and code in line
                       for line in text.splitlines()), (
                f"{code} missing from text output at {expected_text}")

    def test_sarif_output(self, tmp_path, capsys):
        fixture = tmp_path / "seeded.py"
        fixture.write_text(SEEDED, encoding="utf-8")
        lint_main([str(fixture), "--select", "RC03",
                   "--format=sarif"])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"]
                    for rule in run["tool"]["driver"]["rules"]}
        assert {"RC030", "RC031", "RC032", "RC033",
                "RC034"} <= rule_ids
        by_rule = {}
        for result in run["results"]:
            by_rule.setdefault(result["ruleId"], []).append(result)
        for code, marker in SEEDS.items():
            lines = [r["locations"][0]["physicalLocation"]["region"]
                     ["startLine"] for r in by_rule.get(code, [])]
            assert line_of(SEEDED, marker) in lines, code
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels["RC030"] == "error"
        assert levels["RC034"] == "warning"

    def test_baseline_roundtrip(self, tmp_path, capsys):
        fixture = tmp_path / "seeded.py"
        fixture.write_text(SEEDED, encoding="utf-8")
        baseline = tmp_path / "lint.baseline.json"

        # First run writes the baseline and exits 0 (adoption).
        assert lint_main([str(fixture), "--select", "RC03",
                          "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "baseline written" in out
        assert baseline.exists()

        # Second run: everything known is suppressed, exit 0.
        assert lint_main([str(fixture), "--select", "RC03",
                          "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert "baselined finding(s) suppressed" in out

        # A *new* finding still fails.
        fixture.write_text(SEEDED + """
    def second_reset(self):
        self._hits = -1  # fresh RC030
""", encoding="utf-8")
        assert lint_main([str(fixture), "--select", "RC03",
                          "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "RC030" in out

        # --update-baseline absorbs it again.
        assert lint_main([str(fixture), "--select", "RC03",
                          "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        capsys.readouterr()
        assert lint_main([str(fixture), "--select", "RC03",
                          "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_update_baseline_requires_baseline(self, capsys):
        import pytest
        with pytest.raises(SystemExit):
            lint_main(["--update-baseline"])
        capsys.readouterr()

    def test_list_rules_includes_concurrency_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RC030", "RC031", "RC032", "RC033", "RC034"):
            assert code in out


# -- pickling fixes that RC034 drove -----------------------------------------


class TestGetstateFixes:
    def test_stage_cache_roundtrip(self):
        from repro.core.cache import CacheEntry, StageCache

        cache = StageCache()
        cache[("key",)] = CacheEntry("ok", {"d": 1}, {"x": [1, 2]})
        clone = pickle.loads(pickle.dumps(cache))
        entry = clone.get(("key",))
        assert entry is not None
        assert entry.snapshot()[0] == {"x": [1, 2]}
        # The clone's lock is fresh and functional.
        clone[("key2",)] = CacheEntry("ok", {}, {})
        assert len(clone) == 2

    def test_collecting_tracer_roundtrip(self):
        from repro.core.events import CollectingTracer, emit

        tracer = CollectingTracer()
        emit(tracer, "run_start", run_id="r1")
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.kinds() == ["run_start"]
        emit(clone, "run_end")
        assert clone.kinds() == ["run_start", "run_end"]

    def test_fault_injector_roundtrip(self):
        from repro.core.faults import FaultInjector

        faults = FaultInjector().fail("impute", times=2)
        clone = pickle.loads(pickle.dumps(faults))
        assert len(clone._plans["impute"]) == 2
        # Fresh locks: scheduling on the clone still works.
        clone.delay("forecast", 0.01)
        assert "forecast" in clone._plans


# -- self-check --------------------------------------------------------------


class TestSelfCheck:
    def test_concurrency_family_clean_on_repo(self):
        findings, n_files = analyze_paths(
            [REPO / "src" / "repro", REPO / "examples"],
            select=["RC03"])
        assert n_files > 80
        assert findings == [], [f.render() for f in findings]
