"""The static contract analyzer: rule fixtures, CLI and self-check.

One fixture module per rule code, positive and negative, plus a
seeded-everything module asserting every rule reports the correct
``file:line`` and code in both text and JSON output, and a self-check
that the analyzer runs clean over ``src/repro``, ``examples`` and
``benchmarks``.
"""

import json
from pathlib import Path

from repro.analysis import (
    all_rules,
    analyze_paths,
    analyze_source,
    function_effects,
)
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


PRELUDE = "from repro import DecisionPipeline\n"


# -- RC001 undeclared read ---------------------------------------------------


class TestUndeclaredRead:
    def test_positive(self):
        src = PRELUDE + """
def stage(state):
    value = state["secret"]  # MARK
    state["out"] = value

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        findings = only(analyze_source(src), "RC001")
        assert len(findings) == 1
        assert findings[0].line == line_of(src, "# MARK")
        assert findings[0].severity == "error"
        assert "'secret'" in findings[0].message

    def test_read_of_declared_write_key_is_allowed(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1
    return str(state["out"])

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        assert only(analyze_source(src), "RC001") == []

    def test_membership_probe_is_not_a_read(self):
        # __contains__ never raises ContractViolation at runtime.
        src = PRELUDE + """
def stage(state):
    state["out"] = "secret" in state

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        assert only(analyze_source(src), "RC001") == []

    def test_certain_read_reported_even_when_view_escapes(self):
        src = PRELUDE + """
def helper(mapping):
    return len(mapping)

def stage(state):
    helper(state)
    state["out"] = state["secret"]  # MARK

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        findings = only(analyze_source(src), "RC001")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_fallback_body_checked_too(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1

def rescue(state):
    state["out"] = state["secret"]  # MARK

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",),
           on_error="fallback", fallback=rescue)
"""
        findings = only(analyze_source(src), "RC001")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "rescue" in findings[0].message


# -- RC002 undeclared write --------------------------------------------------


class TestUndeclaredWrite:
    def test_positive_assignment(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1
    state["extra"] = 2  # MARK

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        findings = only(analyze_source(src), "RC002")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_positive_delete(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1
    del state["stale"]  # MARK

p = DecisionPipeline()
p.add_data("s", stage, reads=("stale",), writes=("out",))
"""
        findings = only(analyze_source(src), "RC002")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "deletes" in findings[0].message

    def test_update_keywords_are_writes(self):
        src = PRELUDE + """
def stage(state):
    state.update(out=1, extra=2)  # MARK

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        findings = only(analyze_source(src), "RC002")
        assert len(findings) == 1
        assert "'extra'" in findings[0].message

    def test_negative_declared(self):
        src = PRELUDE + """
def stage(state):
    state.update({"out": 1})
    state["also"] = 2

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out", "also"))
"""
        assert only(analyze_source(src), "RC002") == []


# -- RC003 dead declaration --------------------------------------------------


class TestDeadDeclaration:
    def test_dead_read(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("unused",), writes=("out",))  # MARK
"""
        findings = only(analyze_source(src), "RC003")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "warning"
        assert "'unused'" in findings[0].message

    def test_dead_write(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out", "ghost"))  # MARK
"""
        findings = only(analyze_source(src), "RC003")
        assert len(findings) == 1
        assert "'ghost'" in findings[0].message

    def test_view_escape_suppresses(self):
        src = PRELUDE + """
def helper(mapping):
    mapping["unused"]

def stage(state):
    helper(state)
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("unused",), writes=("out",))
"""
        assert only(analyze_source(src), "RC003") == []

    def test_alias_method_call_keeps_write_declaration_alive(self):
        # Mutating through an unknown method (set_edge_attribute
        # style) is why the key is declared as written.
        src = PRELUDE + """
def stage(state):
    net = state["net"]
    net.set_edge_attribute("a", "b", 1.0)
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("net",), writes=("out", "net"))
"""
        assert only(analyze_source(src), "RC003") == []


# -- RC004 in-place mutation of a read-only key ------------------------------


class TestMutatedReadOnly:
    def test_mutating_method_via_alias(self):
        src = PRELUDE + """
def stage(state):
    arr = state["arr"]
    arr.sort()  # MARK
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("arr",), writes=("out",))
"""
        findings = only(analyze_source(src), "RC004")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "error"

    def test_subscript_assignment_through_read_value(self):
        src = PRELUDE + """
def stage(state):
    state["arr"][0] = 99.0  # MARK
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("arr",), writes=("out",))
"""
        findings = only(analyze_source(src), "RC004")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_augmented_assignment_on_alias(self):
        src = PRELUDE + """
def stage(state):
    arr = state["arr"]
    arr += 1  # MARK
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("arr",), writes=("out",))
"""
        findings = only(analyze_source(src), "RC004")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_attribute_assignment_through_alias(self):
        src = PRELUDE + """
def stage(state):
    model = state["model"]
    model.coef = 0.0  # MARK
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("model",), writes=("out",))
"""
        findings = only(analyze_source(src), "RC004")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_declared_write_key_may_be_mutated(self):
        src = PRELUDE + """
def stage(state):
    arr = state["arr"]
    arr.sort()
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("arr",), writes=("out", "arr"))
"""
        assert only(analyze_source(src), "RC004") == []

    def test_nonmutating_method_is_fine(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = state["arr"].mean()

p = DecisionPipeline()
p.add_data("s", stage, reads=("arr",), writes=("out",))
"""
        assert only(analyze_source(src), "RC004") == []


# -- RC010 concurrent write-write --------------------------------------------


class TestConcurrentWriteWrite:
    def test_positive(self):
        src = PRELUDE + """
def left(state):
    state["left_out"] = 1
    state["shared"] = "L"

def right(state):
    state["right_out"] = 1
    state["shared"] = "R"

p = DecisionPipeline()
p.add_governance("left", left, reads=(), writes=("left_out",))
p.add_analytics("right", right, reads=(), writes=("right_out",))  # MARK
"""
        findings = only(analyze_source(src), "RC010")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "'left'" in findings[0].message
        assert "shared" in findings[0].message

    def test_negative_when_contract_orders_them(self):
        # Declaring the shared key creates a write-write DAG edge.
        src = PRELUDE + """
def left(state):
    state["shared"] = "L"

def right(state):
    state["shared"] = "R"

p = DecisionPipeline()
p.add_governance("left", left, reads=(), writes=("shared",))
p.add_analytics("right", right, reads=(), writes=("shared",))
"""
        assert only(analyze_source(src), "RC010") == []

    def test_non_literal_contract_is_ordered_conservatively(self):
        # The AST cannot read KEYS, so "right" may read what "left"
        # writes; the resolver must order them, not report a race.
        src = PRELUDE + """
KEYS = ("shared",)

def left(state):
    state["shared"] = [1]

def right(state):
    state["shared"].append(2)
    state["right_out"] = 1

p = DecisionPipeline()
p.add_governance("left", left, reads=(), writes=("shared",))
p.add_analytics("right", right, reads=KEYS, writes=("right_out",))
"""
        assert only(analyze_source(src), "RC010") == []


# -- RC011 orphan read -------------------------------------------------------


class TestOrphanRead:
    def test_positive_with_later_writer_hint(self):
        src = PRELUDE + """
def early(state):
    state["out"] = state["late_key"]

def late(state):
    state["late_key"] = 1

p = DecisionPipeline()
p.add_data("early", early, reads=("late_key",), writes=("out",))  # MARK
p.add_decision("late", late, reads=(), writes=("late_key",))
p.run()
"""
        findings = only(analyze_source(src), "RC011")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "later stage" in findings[0].message

    def test_initial_state_provides(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = state["seed"]

p = DecisionPipeline()
p.add_data("s", stage, reads=("seed",), writes=("out",))
p.run({"seed": 3})
"""
        assert only(analyze_source(src), "RC011") == []

    def test_unknown_initial_state_stands_down(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = state["seed"]

def launch(initial):
    p = DecisionPipeline()
    p.add_data("s", stage, reads=("seed",), writes=("out",))
    return p.run(initial)
"""
        assert only(analyze_source(src), "RC011") == []


# -- RC012 unreachable fallback ----------------------------------------------


class TestUnreachableFallback:
    def test_fallback_with_wrong_policy(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1

def rescue(state):
    state["out"] = 0

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",),
           on_error="skip", fallback=rescue)  # declared on prev line
"""
        findings = only(analyze_source(src), "RC012")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_fallback_policy_without_callable(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",),
           on_error="fallback")
"""
        assert len(only(analyze_source(src), "RC012")) == 1

    def test_negative(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = 1

def rescue(state):
    state["out"] = 0

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",),
           on_error="fallback", fallback=rescue)
"""
        assert only(analyze_source(src), "RC012") == []


# -- RC013 missing contract --------------------------------------------------


class TestWildcardStage:
    """RC013: a stage without a reads= or writes= side cannot be built."""

    def test_positive(self):
        src = PRELUDE + """
CONTRACT = {"reads": (), "writes": ("out",)}

def declared(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_data("ok", declared, reads=(), writes=("out",))
p.add_data("mapped", declared, **CONTRACT)
p.add_governance("undeclared", declared)  # MARK-BOTH
p.add_analytics("writes_only", declared, writes=("out",))  # MARK-W
p.add_decision("none", declared, reads=None, writes=("out",))  # MARK-N
"""
        findings = only(analyze_source(src), "RC013")
        assert [(f.line, f.stage) for f in findings] == [
            (line_of(src, "# MARK-BOTH"), "undeclared"),
            (line_of(src, "# MARK-W"), "writes_only"),
            (line_of(src, "# MARK-N"), "none")]
        assert all(f.severity == "error" for f in findings)
        assert "no reads/writes contract" in findings[0].message
        assert "no reads contract" in findings[1].message
        assert "raises at construction" in findings[2].message

    def test_fully_undeclared_pipeline_is_flagged(self):
        src = PRELUDE + """
def a(state):
    state["x"] = 1

def b(state):
    state["y"] = state["x"]

p = DecisionPipeline()
p.add_data("a", a)  # MARK-A
p.add_governance("b", b)  # MARK-B
"""
        findings = only(analyze_source(src), "RC013")
        assert [f.line for f in findings] == [line_of(src, "# MARK-A"),
                                              line_of(src, "# MARK-B")]


# -- RC020 / RC021 repo-local rules ------------------------------------------


class TestRepoLocalRules:
    def test_np_trapezoid_attribute(self):
        src = """
import numpy as np

def area(ys, xs):
    return np.trapezoid(ys, xs)  # MARK
"""
        findings = only(analyze_source(src), "RC020")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "error"

    def test_np_trapz_under_other_alias(self):
        src = """
import numpy

def area(ys, xs):
    return numpy.trapz(ys, xs)  # MARK
"""
        findings = only(analyze_source(src), "RC020")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]

    def test_import_from_numpy(self):
        src = "from numpy import trapz\n"
        assert len(only(analyze_source(src), "RC020")) == 1

    def test_shim_is_clean(self):
        src = """
from repro._validation import trapezoid

def area(ys, xs):
    return trapezoid(ys, xs)
"""
        assert only(analyze_source(src), "RC020") == []

    def test_unbounded_dijkstra_all(self):
        src = """
def reach(network, source):
    return network.dijkstra_all(source)  # MARK
"""
        findings = only(analyze_source(src), "RC021")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "warning"

    def test_bounded_dijkstra_all_is_clean(self):
        src = """
def reach(network, source):
    return network.dijkstra_all(source, cutoff=2.5)
"""
        assert only(analyze_source(src), "RC021") == []


# -- RC022 unpicklable stage function ----------------------------------------


class TestUnpicklableStageFunction:
    def test_lambda_stage(self):
        src = PRELUDE + """
p = DecisionPipeline()
p.add_data("lam", lambda state: None,  # MARK
           reads=(), writes=())
"""
        findings = only(analyze_source(src), "RC022")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "warning"
        assert findings[0].stage == "lam"
        assert "ProcessExecutor" in findings[0].message

    def test_lambda_fallback(self):
        src = PRELUDE + """
def work(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_data("w", work, reads=(), writes=("out",),
           on_error="fallback",
           fallback=lambda state: None)  # MARK
"""
        findings = only(analyze_source(src), "RC022")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "fallback" in findings[0].message

    def test_nested_def(self):
        src = PRELUDE + """
def build():
    def work(state):  # MARK
        state["out"] = 1
    p = DecisionPipeline()
    p.add_data("w", work, reads=(), writes=("out",))
    return p
"""
        findings = only(analyze_source(src), "RC022")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "pickled" in findings[0].message

    def test_module_level_def_is_clean(self):
        src = PRELUDE + """
def work(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_data("w", work, reads=(), writes=("out",))
"""
        assert only(analyze_source(src), "RC022") == []

    def test_shadowed_name_is_skipped(self):
        # A nested def whose name also exists at module level: the
        # analyzer cannot prove which binding the add_data site sees,
        # so it stays quiet rather than risk a false positive.
        src = PRELUDE + """
def work(state):
    state["out"] = 1

def build():
    def work(state):
        state["out"] = 2
    return work

p = DecisionPipeline()
p.add_data("w", work, reads=(), writes=("out",))
"""
        assert only(analyze_source(src), "RC022") == []

    def test_listed_in_catalogue(self):
        assert "RC022" in {rule.code for rule in all_rules()}


# -- RC023 unreduced dominance call ------------------------------------------


class TestUnreducedDominanceCall:
    def test_bare_call_in_stage(self):
        src = PRELUDE + """
from repro.decision import dominance_prune

def decide(state):
    state["survivors"] = dominance_prune(state["ensemble"])  # MARK

p = DecisionPipeline()
p.add_decision("d", decide, reads=("ensemble",),
               writes=("survivors",))
"""
        findings = only(analyze_source(src), "RC023")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert findings[0].severity == "warning"
        assert findings[0].stage == "d"
        assert "reduce_to=" in findings[0].message

    def test_select_best_attribute_call(self):
        src = PRELUDE + """
import repro.decision as decision

def decide(state):
    state["best"] = decision.select_best(  # MARK
        state["ensemble"], state["utility"])

p = DecisionPipeline()
p.add_decision("d", decide, reads=("ensemble", "utility"),
               writes=("best",))
"""
        findings = only(analyze_source(src), "RC023")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "select_best" in findings[0].message

    def test_reduce_to_is_clean(self):
        src = PRELUDE + """
from repro.decision import dominance_prune, select_best

def decide(state):
    state["survivors"] = dominance_prune(state["ensemble"],
                                         reduce_to=50)
    state["best"] = select_best(state["ensemble"], state["utility"],
                                reduction=state["reduction"])

p = DecisionPipeline()
p.add_decision("d", decide,
               reads=("ensemble", "utility", "reduction"),
               writes=("survivors", "best"))
"""
        assert only(analyze_source(src), "RC023") == []

    def test_noqa_suppresses(self):
        src = PRELUDE + """
from repro.decision import dominance_prune

def decide(state):
    state["survivors"] = dominance_prune(state["ensemble"])  # noqa: RC023

p = DecisionPipeline()
p.add_decision("d", decide, reads=("ensemble",),
               writes=("survivors",))
"""
        assert only(analyze_source(src), "RC023") == []

    def test_call_outside_stage_is_ignored(self):
        src = PRELUDE + """
from repro.decision import dominance_prune

def interactive(ensemble):
    return dominance_prune(ensemble)

def decide(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_decision("d", decide, reads=(), writes=("out",))
"""
        assert only(analyze_source(src), "RC023") == []

    def test_listed_in_catalogue(self):
        assert "RC023" in {rule.code for rule in all_rules()}


# -- parsing, suppression, extraction edge cases -----------------------------


class TestAnalyzerMechanics:
    def test_syntax_error_is_rc000(self):
        findings = analyze_source("def broken(:\n", path="bad.py")
        assert codes(findings) == ["RC000"]
        assert findings[0].is_error
        assert findings[0].path == "bad.py"

    def test_noqa_suppresses_by_code(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = state["secret"]  # noqa: RC001

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        assert only(analyze_source(src), "RC001") == []

    def test_noqa_other_code_does_not_suppress(self):
        src = PRELUDE + """
def stage(state):
    state["out"] = state["secret"]  # noqa: RC002

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        assert len(only(analyze_source(src), "RC001")) == 1

    def test_select_and_ignore_prefixes(self):
        src = PRELUDE + """
import numpy as np

def stage(state):
    state["out"] = np.trapz([1.0], [0.0])
    state["extra"] = state["secret"]

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
"""
        assert set(codes(analyze_source(src))) == {
            "RC001", "RC002", "RC020"}
        assert set(codes(analyze_source(src, select=["RC00"]))) == {
            "RC001", "RC002"}
        assert set(codes(analyze_source(src, ignore=["RC002"]))) == {
            "RC001", "RC020"}

    def test_chained_construction_and_factory_idiom(self):
        src = PRELUDE + """
def collect(state):
    state["raw"] = [1, 2, 3]

def analyze(state):
    state["out"] = state["missing"]  # MARK

def build():
    pipeline = (DecisionPipeline("ops")
                .add_data("collect", collect,
                          reads=(), writes=("raw",))
                .add_analytics("an", analyze,
                               reads=("raw",), writes=("out",)))
    return pipeline

build().run()
"""
        findings = analyze_source(src)
        assert [f.line for f in only(findings, "RC001")] == [
            line_of(src, "# MARK")]
        # both stages extracted into one pipeline: the dead 'raw'
        # read of stage 'an' is real and flagged
        assert len(only(findings, "RC003")) == 1

    def test_lambda_stage_function(self):
        src = PRELUDE + """
p = DecisionPipeline()
p.add_data("seed", lambda s: s.update(x=1) or "ok",
           reads=(), writes=())  # MARK
"""
        findings = only(analyze_source(src), "RC002")
        assert len(findings) == 1
        assert "'x'" in findings[0].message

    def test_tuple_unpack_aliases(self):
        src = PRELUDE + """
def stage(state):
    left, right = state["a"], state["b"]
    left.append(right)  # MARK
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=("a", "b"), writes=("out",))
"""
        findings = only(analyze_source(src), "RC004")
        assert [f.line for f in findings] == [line_of(src, "# MARK")]
        assert "'a'" in findings[0].message

    def test_function_effects_direct(self):
        src = """
def stage(state):
    value = state.get("a")
    state["b"] = value
    del state["c"]
    state.setdefault("d", 1)
"""
        import ast
        fn = ast.parse(src).body[0]
        fx = function_effects(fn)
        assert set(fx.reads) == {"a", "d"}
        assert set(fx.writes) == {"b", "d"}
        assert set(fx.deletes) == {"c"}
        assert not fx.opaque


# -- CLI ---------------------------------------------------------------------


SEEDED = PRELUDE + """import numpy as np


def collect(state):
    state["arr"] = np.arange(4.0)
    state["hidden"] = 1  # SEED-RC002


def detect(state):
    arr = state["arr"]
    arr.sort()  # SEED-RC004
    peek = state["hidden"]  # SEED-RC001
    state["scores"] = arr + peek
    state["hidden"] = 0


def summarize(state):
    state["area"] = np.trapezoid(state["scores"])  # SEED-RC020
    state["report"] = state["ghost"]
    state["audit"] = "summarize"


def act(state):
    state["plan"] = str(state["scores"])
    state["audit"] = "act"


p = DecisionPipeline("seeded")
p.add_data("collect", collect, reads=(), writes=("arr",))
p.add_analytics("detect", detect,  # SEED-RC003
                reads=("arr", "unused"),
                writes=("scores",))
p.add_analytics("summarize", summarize,  # SEED-RC011
                reads=("scores", "ghost"),
                writes=("area", "report"))
p.add_decision("act", act,  # SEED-RC010
               reads=("scores",), writes=("plan",))
p.run()
"""

#: every seeded violation: rule code -> fixture marker
SEEDS = {
    "RC001": "# SEED-RC001",
    "RC002": "# SEED-RC002",
    "RC003": "# SEED-RC003",
    "RC004": "# SEED-RC004",
    "RC010": "# SEED-RC010",
    "RC011": "# SEED-RC011",
    "RC020": "# SEED-RC020",
}


class TestCli:
    def test_seeded_violations_text_and_json(self, tmp_path, capsys):
        fixture = tmp_path / "seeded.py"
        fixture.write_text(SEEDED, encoding="utf-8")
        report_path = tmp_path / "report.json"

        exit_code = lint_main([str(fixture)])
        text = capsys.readouterr().out
        assert exit_code == 1  # errors present

        exit_code = lint_main([str(fixture), "--format=json",
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
                f"{code} missing from text output at "
                f"{expected_text}")
        assert report["summary"]["errors"] > 0
        assert report["summary"]["files"] == 1

    def test_wildcard_seed_reported(self, tmp_path, capsys):
        # RC012/RC013 need their own fixture: the constructor-level
        # errors would distort the seeded pipeline above.
        src = PRELUDE + """
def a(state):
    state["x"] = 1

def b(state):
    state["y"] = state["x"]

def rescue(state):
    state["y"] = 0

p = DecisionPipeline()
p.add_data("a", a, reads=(), writes=("x",))
p.add_governance("b", b, on_error="skip",
                 fallback=rescue)  # SEED-RC012 SEED-RC013
"""
        fixture = tmp_path / "wild.py"
        fixture.write_text(src, encoding="utf-8")
        exit_code = lint_main([str(fixture), "--format=json"])
        report = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        reported = {f["code"] for f in report["findings"]}
        assert {"RC012", "RC013"} <= reported

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        fixture = tmp_path / "clean.py"
        fixture.write_text(PRELUDE + """
def stage(state):
    state["out"] = 1

p = DecisionPipeline()
p.add_data("s", stage, reads=(), writes=("out",))
p.run()
""", encoding="utf-8")
        assert lint_main([str(fixture)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.code in out

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        import pytest
        with pytest.raises(SystemExit):
            lint_main([str(tmp_path / "nope")])
        capsys.readouterr()


# -- self-check --------------------------------------------------------------


class TestSelfCheck:
    def test_analyzer_runs_clean_on_the_repo(self):
        findings, n_files = analyze_paths(
            [REPO / "src" / "repro", REPO / "examples",
             REPO / "benchmarks"])
        assert n_files > 80
        assert findings == [], [f.render() for f in findings]

    def test_rule_catalogue_is_documented(self):
        catalogue = (REPO / "docs" / "STATIC_ANALYSIS.md").read_text(
            encoding="utf-8")
        for rule in all_rules():
            assert rule.code in catalogue, (
                f"{rule.code} missing from docs/STATIC_ANALYSIS.md")
