"""Static contract analysis: the engine's guarantees at lint time.

The runtime engine enforces stage ``reads``/``writes`` contracts via
:class:`~repro.core.stage.ContractViolation` -- but only once a run is
already in flight, and with one documented escape hatch (in-place
mutation of a read value).  This package shifts those guarantees left:
an AST-based analyzer proves contract conformance of any module that
constructs a :class:`~repro.core.pipeline.DecisionPipeline` *before*
anything executes, and layers pipeline-level dataflow checks and
repo-local lint rules on top.

Use the CLI::

    python -m repro.lint src examples
    python -m repro.lint src --format=json
    python -m repro.lint --list-rules

or the library API::

    from repro.analysis import analyze_file, analyze_paths
    findings, n_files = analyze_paths(["src", "examples"])
    errors = [f for f in findings if f.is_error]

The rule set is a pluggable registry -- see
:func:`~repro.analysis.findings.register_rule` and the catalogue in
``docs/STATIC_ANALYSIS.md``.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "analyzer": (
        "analyze_file", "analyze_paths", "analyze_source", "iter_python_files",
    ),
    "concurrency": ("ClassInfo", "MethodInfo", "extract_classes"),
    "extract": (
        "FunctionEffects", "ModuleInfo", "PipelineDecl", "StageDecl",
        "extract_module", "function_effects",
    ),
    "findings": (
        "ERROR", "Finding", "Rule", "WARNING", "all_rules", "get_rule",
        "register_rule",
    ),
})
