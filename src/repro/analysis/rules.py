"""The built-in rule set of the contract linter.

Three families, all in the same pluggable registry
(:mod:`repro.analysis.findings`):

* ``RC00x`` — stage-level contract conformance: what a stage function
  *does* to its view argument vs. what its ``reads``/``writes``
  declaration *says* (the static twin of the runtime
  :class:`~repro.core.stage.ContractViolation`);
* ``RC01x`` — pipeline-level dataflow hazards over the resolved DAG:
  races the runtime checker structurally cannot see until they fire;
* ``RC02x`` — repo-local conventions (portability and hot-path
  discipline).

Every check only reports what the AST can prove; escapes of the view
or dynamic keys suppress the heuristic rules (dead declarations) but
never the certain ones.  A contract side that is not a literal key
set (a name, an expression, or missing) is treated as "may be any
key": rules that need the key set stand down, and dependency
resolution orders the stage conservatively.
"""

from __future__ import annotations

import ast

from .findings import ERROR, Finding, WARNING, get_rule, register_rule

__all__ = ["finding_at"]


def finding_at(module, code, line, message, *, stage=None, col=1):
    """A Finding at an explicit source position."""
    rule = get_rule(code)
    return Finding(path=module.path, line=line, col=col, code=code,
                   severity=rule.severity, message=message, stage=stage)


def _stage_anchor(stage):
    return {"line": stage.lineno, "col": stage.col + 1}


# ---------------------------------------------------------------------------
# RC00x -- stage contract conformance
# ---------------------------------------------------------------------------

@register_rule(
    "RC000", name="syntax-error", severity=ERROR, scope="module",
    summary="file could not be parsed")
def check_syntax(module):
    """Emitted directly by the analyzer when parsing fails."""
    return ()


@register_rule(
    "RC001", name="undeclared-read", severity=ERROR, scope="stage",
    summary="stage function reads a state key its contract does not "
            "declare")
def check_undeclared_read(stage, pipeline, module):
    if not stage.declared:
        return  # cannot tell what the contract allows
    allowed = stage.reads | stage.writes
    for fx in stage.effect_sets():
        for key, line in sorted(fx.reads.items()):
            if key not in allowed:
                yield finding_at(
                    module, "RC001", line,
                    f"stage {stage.name!r} ({fx.name}) reads "
                    f"undeclared key {key!r} (declared reads: "
                    f"{sorted(stage.reads)})",
                    stage=stage.name)


@register_rule(
    "RC002", name="undeclared-write", severity=ERROR, scope="stage",
    summary="stage function writes or deletes a state key its "
            "contract does not declare")
def check_undeclared_write(stage, pipeline, module):
    if not isinstance(stage.writes, frozenset):
        return
    for fx in stage.effect_sets():
        written = dict(sorted(fx.writes.items()))
        for key, line in sorted(fx.deletes.items()):
            written.setdefault(key, line)
        for key, line in written.items():
            if key not in stage.writes:
                verb = ("deletes" if key in fx.deletes
                        and key not in fx.writes else "writes")
                yield finding_at(
                    module, "RC002", line,
                    f"stage {stage.name!r} ({fx.name}) {verb} "
                    f"undeclared key {key!r} (declared writes: "
                    f"{sorted(stage.writes)})",
                    stage=stage.name)


@register_rule(
    "RC003", name="dead-declaration", severity=WARNING, scope="stage",
    summary="declared contract key the stage function never touches")
def check_dead_declaration(stage, pipeline, module):
    if not stage.declared:
        return
    effect_sets = stage.effect_sets()
    if not effect_sets:
        return
    if any(fx.opaque or fx.dynamic for fx in effect_sets):
        return  # the function sees more than the AST can prove
    used = set()
    possibly_written = set()
    for fx in effect_sets:
        used |= fx.touched() | fx.maybe_mutated
        possibly_written |= (set(fx.writes) | set(fx.deletes)
                             | set(fx.mutations) | fx.maybe_mutated)
    anchor = _stage_anchor(stage)
    for key in sorted(stage.reads - used):
        yield finding_at(
            module, "RC003", anchor["line"], col=anchor["col"],
            message=f"stage {stage.name!r} declares read {key!r} but "
                    "never uses it (stale contract narrows "
                    "scheduling for nothing)",
            stage=stage.name)
    for key in sorted(stage.writes - possibly_written):
        if key in used:
            yield finding_at(
                module, "RC003", anchor["line"], col=anchor["col"],
                message=f"stage {stage.name!r} declares write {key!r} "
                        "but only reads it; declare it in reads "
                        "instead",
                stage=stage.name)
        else:
            yield finding_at(
                module, "RC003", anchor["line"], col=anchor["col"],
                message=f"stage {stage.name!r} declares write {key!r} "
                        "but never writes it (downstream stages wait "
                        "on a key that never arrives)",
                stage=stage.name)


@register_rule(
    "RC004", name="mutated-read-only", severity=ERROR, scope="stage",
    summary="in-place mutation of a value the contract only declares "
            "as read")
def check_mutated_read_only(stage, pipeline, module):
    if not isinstance(stage.writes, frozenset):
        return
    for fx in stage.effect_sets():
        for key, (line, what) in sorted(fx.mutations.items()):
            if key in stage.writes:
                continue
            if (isinstance(stage.reads, frozenset)
                    and key not in stage.reads):
                continue  # the read itself is already RC001
            yield finding_at(
                module, "RC004", line,
                f"stage {stage.name!r} ({fx.name}) mutates read-only "
                f"key {key!r} in place ({what}); the transaction "
                "layer cannot roll this back -- declare the key in "
                "writes or run with copy_on_read=True",
                stage=stage.name)


@register_rule(
    "RC012", name="unreachable-fallback", severity=ERROR,
    scope="stage",
    summary="fallback that can never run (or a fallback policy "
            "without one)")
def check_unreachable_fallback(stage, pipeline, module):
    anchor = _stage_anchor(stage)
    if stage.fallback_given and stage.on_error != "fallback":
        yield finding_at(
            module, "RC012", anchor["line"], col=anchor["col"],
            message=f"stage {stage.name!r} passes fallback= but "
                    f"on_error={stage.on_error!r}; the fallback is "
                    "unreachable (Stage() raises at construction)",
            stage=stage.name)
    elif stage.on_error == "fallback" and not stage.fallback_given:
        yield finding_at(
            module, "RC012", anchor["line"], col=anchor["col"],
            message=f"stage {stage.name!r} sets on_error='fallback' "
                    "without a fallback callable (Stage() raises at "
                    "construction)",
            stage=stage.name)


@register_rule(
    "RC013", name="missing-contract", severity=ERROR, scope="stage",
    summary="stage declares no reads= or writes= contract (Stage() "
            "raises at construction)")
def check_missing_contract(stage, pipeline, module):
    sides = [side for side, keys
             in (("reads", stage.reads), ("writes", stage.writes))
             if keys is None]
    if sides:
        anchor = _stage_anchor(stage)
        yield finding_at(
            module, "RC013", anchor["line"], col=anchor["col"],
            message=f"stage {stage.name!r} declares no "
                    f"{'/'.join(sides)} contract (Stage() raises at "
                    "construction); pass () for an empty side",
            stage=stage.name)


# ---------------------------------------------------------------------------
# RC01x -- pipeline dataflow hazards
# ---------------------------------------------------------------------------

def _may_share(a, b):
    """Whether two contract sides can name a common key.

    A non-literal side may hold any key, so it shares with every
    non-empty side and with another non-literal one.
    """
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return not a.isdisjoint(b)
    if isinstance(a, frozenset):
        return bool(a)
    return bool(b) if isinstance(b, frozenset) else True


def _dependencies(stages):
    """The core resolver's read/write edges over parsed contracts."""
    return [{i for i, earlier in enumerate(stages[:j])
             if _may_share(earlier.writes, later.reads)
             or _may_share(earlier.reads, later.writes)
             or _may_share(earlier.writes, later.writes)}
            for j, later in enumerate(stages)]


def _ancestor_closure(deps):
    ancestors = [set() for _ in deps]
    for j, dep_set in enumerate(deps):
        for i in dep_set:
            ancestors[j].add(i)
            ancestors[j] |= ancestors[i]
    return ancestors


def _effective_writes(stage):
    keys = (set(stage.writes)
            if isinstance(stage.writes, frozenset) else set())
    for fx in stage.effect_sets():
        keys |= set(fx.writes) | set(fx.deletes) | set(fx.mutations)
    return keys


@register_rule(
    "RC010", name="concurrent-write-write", severity=ERROR,
    scope="pipeline",
    summary="two stages the DAG schedules concurrently both write "
            "the same key")
def check_concurrent_write_write(pipeline, module):
    stages = pipeline.stages
    if len(stages) < 2:
        return
    deps = _dependencies(stages)
    ancestors = _ancestor_closure(deps)
    effective = [_effective_writes(s) for s in stages]
    for j, later in enumerate(stages):
        for i in range(j):
            if i in ancestors[j]:
                continue  # ordered by contracts: no race
            shared = effective[i] & effective[j]
            if not shared:
                continue
            earlier = stages[i]
            yield finding_at(
                module, "RC010", later.lineno, col=later.col + 1,
                message=f"stages {earlier.name!r} and {later.name!r} "
                        "have independent contracts (the DAG may run "
                        "them concurrently) but both write "
                        f"{sorted(shared)}; declare the writes so "
                        "the resolver can order them",
                stage=later.name)


@register_rule(
    "RC011", name="orphan-read", severity=WARNING, scope="pipeline",
    summary="declared read no upstream stage writes and the initial "
            "state does not provide")
def check_orphan_read(pipeline, module):
    if pipeline.initial_keys is None:
        return  # initial state not statically known
    provided = set(pipeline.initial_keys)
    provider_unknown = False
    stages = pipeline.stages
    for index, stage in enumerate(stages):
        if isinstance(stage.reads, frozenset) and not provider_unknown:
            own = (stage.writes
                   if isinstance(stage.writes, frozenset)
                   else frozenset())
            for key in sorted(stage.reads):
                if key in provided or key in own:
                    continue
                later = [s.name for s in stages[index + 1:]
                         if isinstance(s.writes, frozenset)
                         and key in s.writes]
                hint = (f"; only later stage(s) {later} write it, "
                        "so this reads nothing" if later
                        else "; no stage writes it")
                yield finding_at(
                    module, "RC011", stage.lineno, col=stage.col + 1,
                    message=f"stage {stage.name!r} reads {key!r} "
                            "which no upstream stage writes and the "
                            f"initial state does not provide{hint}",
                    stage=stage.name)
        if isinstance(stage.writes, frozenset):
            provided |= stage.writes
        else:
            provider_unknown = True


# ---------------------------------------------------------------------------
# RC02x -- repo-local conventions
# ---------------------------------------------------------------------------

_TRAPEZOID_NAMES = ("trapz", "trapezoid")


@register_rule(
    "RC020", name="direct-np-trapezoid", severity=ERROR,
    scope="module",
    summary="direct numpy trapezoid integration instead of the "
            "version-portable repro._validation.trapezoid shim")
def check_np_trapezoid(module):
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in module.numpy_aliases
                and node.attr in _TRAPEZOID_NAMES):
            yield module.finding(
                "RC020", node,
                f"direct {node.value.id}.{node.attr} reference; use "
                "repro._validation.trapezoid (np.trapezoid only "
                "exists on numpy >= 2.0)")
        elif (isinstance(node, ast.ImportFrom)
                and node.module == "numpy" and node.level == 0):
            for alias in node.names:
                if alias.name in _TRAPEZOID_NAMES:
                    yield module.finding(
                        "RC020", node,
                        f"import of numpy.{alias.name}; use "
                        "repro._validation.trapezoid (np.trapezoid "
                        "only exists on numpy >= 2.0)")


def _local_def_names(module):
    """Function names defined *only* inside another function's body.

    A reference to such a name from an ``add_*`` call is a closure:
    it cannot be pickled (pickle serializes functions by qualified
    module path), so it cannot cross the process boundary.  A name
    that is also defined at module level is skipped — the analyzer
    cannot tell which binding the call site sees, and RC022 only
    reports what it can prove.
    """
    cached = getattr(module, "_rc022_local_defs", None)
    if cached is not None:
        return cached
    nested, toplevel = set(), set()

    class _Scan(ast.NodeVisitor):
        depth = 0

        def _function(self, node, name):
            (nested if self.depth else toplevel).add(name)
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        def visit_FunctionDef(self, node):
            self._function(node, node.name)

        def visit_AsyncFunctionDef(self, node):
            self._function(node, node.name)

        def visit_Lambda(self, node):
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

    _Scan().visit(module.tree)
    local = nested - toplevel
    module._rc022_local_defs = local
    return local


@register_rule(
    "RC022", name="unpicklable-stage-function", severity=WARNING,
    scope="stage",
    summary="stage function is a lambda or locally defined closure, "
            "which cannot be pickled and so cannot run under "
            "ProcessExecutor")
def check_unpicklable_stage_function(stage, pipeline, module):
    for role, fx in (("function", stage.effects),
                     ("fallback", stage.fallback_effects)):
        if fx is None:
            continue
        if fx.name == "<lambda>":
            yield finding_at(
                module, "RC022", fx.lineno,
                f"stage {stage.name!r} {role} is a lambda, which "
                "cannot be pickled; under ProcessExecutor the stage "
                "falls back to in-parent execution (or fails with "
                "on_unpicklable='error') -- define it as a "
                "module-level function",
                stage=stage.name)
        elif fx.name in _local_def_names(module):
            yield finding_at(
                module, "RC022", fx.lineno,
                f"stage {stage.name!r} {role} {fx.name!r} is defined "
                "inside another function, so it -- and anything it "
                "closes over: locks, open files, enclosing-scope "
                "state -- cannot be pickled to a ProcessExecutor "
                "worker; move it to module level",
                stage=stage.name)


_DOMINANCE_NAMES = ("dominance_prune", "select_best")
_REDUCTION_KEYWORDS = ("reduce_to", "reduction")


@register_rule(
    "RC023", name="unreduced-dominance-call", severity=WARNING,
    scope="stage",
    summary="dominance_prune/select_best inside a pipeline stage "
            "without reduce_to=/reduction= runs O(N²) over the full "
            "ensemble on every stage execution")
def check_unreduced_dominance(stage, pipeline, module):
    """Pipeline stages re-execute per run over production-sized
    ensembles, so an unreduced dominance call there is the exact
    O(N²·|grid|) hot path scenario reduction exists to avoid.
    Interactive / notebook calls are out of scope — only functions
    wired into a pipeline stage are checked.  Suppress deliberate
    full-ensemble passes with ``# noqa: RC023``.
    """
    for fx in stage.effect_sets():
        node = module.functions.get(fx.name)
        if node is None:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name not in _DOMINANCE_NAMES:
                continue
            if any(kw.arg in _REDUCTION_KEYWORDS
                   for kw in call.keywords):
                continue
            yield finding_at(
                module, "RC023", call.lineno,
                f"stage {stage.name!r} calls {name}() without "
                "reduce_to=/reduction=: every stage execution pays "
                "O(N²) dominance over the full scenario ensemble; "
                "reduce to k representatives (or mark a deliberate "
                "full pass with `# noqa: RC023`)",
                stage=stage.name)


@register_rule(
    "RC021", name="unbounded-dijkstra-all", severity=WARNING,
    scope="module",
    summary="dijkstra_all() without cutoff= explores the whole "
            "graph on a hot path")
def check_unbounded_dijkstra(module):
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "dijkstra_all"
                and not any(kw.arg == "cutoff"
                            for kw in node.keywords)):
            yield module.finding(
                "RC021", node,
                "dijkstra_all() without cutoff= explores the whole "
                "graph; pass a finite cutoff on hot paths (or "
                "cutoff=None explicitly to document the intent)")
