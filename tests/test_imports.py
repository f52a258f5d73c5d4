"""What each import set loads, and what the lazy exports resolve to.

Every package under ``repro`` exports its names lazily (``repro._lazy``):
a submodule is imported when one of its names is first used.  Each test
starts a fresh interpreter, so it sees what a cold start loads.  None of
them times anything.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What a served query never needs: the analytics, the lint, the
#: leaderboards, the imputers, the map matcher and the engine's pools.
NOT_SERVED = (
    "repro.analytics",
    "repro.analysis",
    "repro.benchmarking",
    "repro.governance.imputation",
    "repro.governance.fusion",
    "repro.core.executors",
    "repro.core.scheduler",
    "multiprocessing",
)

#: Resolves every name of every package's ``__all__`` and prints what
#: breaks each of the export rules, one JSON list per rule.
CHECK_EXPORTS = """
import importlib, json, pkgutil, sys
import repro

def defined_in(package, name, value):
    module = sys.modules.get(getattr(value, "__module__", None) or "")
    if module is not None and module.__name__.startswith("repro."):
        return getattr(module, name, None) is value
    return any(vars(module).get(name) is value
               for key, module in list(sys.modules.items())
               if key.startswith(package.__name__ + ".")
               and not hasattr(module, "__path__"))

problems = {"unresolved": [], "not_defining": [], "not_in_dir": [],
            "shadows_submodule": []}
packages = [repro] + [importlib.import_module(info.name)
                      for info in pkgutil.walk_packages(
                          repro.__path__, "repro.") if info.ispkg]
submodules = {package: {info.name for info in pkgutil.iter_modules(
    package.__path__)} for package in packages}
# Names that are also submodule names go first: once the submodule is
# imported, it binds the name itself and hides a wrong export.
for package in packages:
    for name in submodules[package].intersection(package.__all__):
        where = f"{package.__name__}.{name}"
        if getattr(package, name) is not importlib.import_module(where):
            problems["shadows_submodule"].append(where)
for package in packages:
    for name in package.__all__:
        where = f"{package.__name__}.{name}"
        # Before the name resolves, so dir() cannot read it off the cache.
        if name not in dir(package):
            problems["not_in_dir"].append(where)
        try:
            value = getattr(package, name)
        except (AttributeError, ImportError):
            problems["unresolved"].append(where)
            continue
        if (name not in submodules[package] and name != "__version__"
                and not defined_in(package, name, value)):
            problems["not_defining"].append(where)
problems["scipy"] = sorted(m for m in sys.modules
                           if m.split(".")[0] == "scipy")
problems["packages"] = len(packages)
print(json.dumps(problems))
"""


def python(code):
    """Run ``code`` in a fresh interpreter that imports ``repro`` from
    this checkout's ``src``."""
    src = ROOT / "src"
    path = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def loaded_after(code):
    """The names in ``sys.modules`` once ``code`` has run."""
    result = python(code + "\nimport json, sys\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout.splitlines()[-1]))


def repro_modules(modules):
    return sorted(m for m in modules if m.split(".")[0] == "repro")


def serve_route_imports():
    """The ``repro`` import statements of the served-query benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "serving.py").read_text())
    return "\n".join(
        ast.unparse(node) for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro")


def test_import_repro_loads_only_the_package_and_its_helper():
    assert repro_modules(loaded_after("import repro")) == [
        "repro", "repro._lazy"]


def test_serve_route_import_set_skips_what_it_does_not_serve():
    code = serve_route_imports()
    assert "DecisionServer" in code and "StochasticRouter" in code
    modules = loaded_after(code)
    assert sorted(modules.intersection(NOT_SERVED)) == []
    assert len(repro_modules(modules)) <= 30, repro_modules(modules)


def test_every_export_resolves_to_its_defining_object():
    result = python(CHECK_EXPORTS)
    assert result.returncode == 0, result.stderr[-2000:]
    problems = json.loads(result.stdout.splitlines()[-1])
    assert problems.pop("packages") == 22
    assert problems == {"unresolved": [], "not_defining": [],
                        "not_in_dir": [], "shadows_submodule": [],
                        "scipy": []}


def test_import_repro_loads_no_scipy():
    # CcaAligner.fit imports scipy.linalg at its call site, so
    # ``import repro`` (and every process-executor worker) skips
    # scipy entirely.
    result = python("import sys, repro; print(sorted(m for m in sys.modules "
                    "if m.split('.')[0] == 'scipy'))")
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def test_import_repro_leaves_scipy_stats_unloaded():
    # KsDriftDetector imports scipy.stats at its call site, so
    # ``import repro`` (and every process-executor worker) skips it.
    result = python("import sys, repro; print('scipy.stats' in sys.modules)")
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"
