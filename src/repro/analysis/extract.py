"""AST extraction: pipelines, stage contracts, state-access effects.

This module turns one Python source file into a :class:`ModuleInfo`
describing, *without executing anything*:

* every :class:`~repro.core.pipeline.DecisionPipeline` the module
  constructs, with the declared ``reads``/``writes`` contract, failure
  policy and (where resolvable) the stage / fallback functions of each
  ``add_*`` call — including chained construction and the
  ``build_pipeline()`` factory idiom;
* for every resolved stage function, its *effects* on the state view
  argument: which keys it certainly reads, writes and deletes, which
  read values it mutates in place (attribute / subscript / augmented
  assignment through an alias, or known mutating methods such as
  ``np.ndarray.sort`` and ``list.append``), and whether the view
  *escapes* the function's static horizon (passed whole to a callee,
  iterated, ``**``-unpacked ...).

The extraction is deliberately conservative, mirroring the runtime
semantics of :class:`repro.core.stage._ContractView`:

* only accesses the AST can *prove* are recorded as certain — an
  escape or a dynamic (non-literal) key never invents a finding, it
  only suppresses the "dead declaration" heuristics;
* ``key in view`` is recorded as a *probe*, not a read, because the
  runtime ``__contains__`` never raises :class:`ContractViolation`;
* ``view.pop(key)`` counts as read + delete (the runtime routes it
  through ``__getitem__`` and ``__delitem__``, so deletion requires a
  *write* declaration).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "UNKNOWN",
    "FunctionEffects",
    "ModuleInfo",
    "PipelineDecl",
    "StageDecl",
    "extract_module",
]


class _Unknown:
    """Sentinel: a contract expression the AST cannot evaluate."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()

#: add_* methods of DecisionPipeline and the layer they imply
#: (``None`` = layer is the first positional argument).
ADD_METHODS = {
    "add_stage": None,
    "add_data": "data",
    "add_governance": "governance",
    "add_analytics": "analytics",
    "add_decision": "decision",
}

#: Method names that mutate their receiver in place for the builtin
#: containers and numpy arrays stage state typically holds.
MUTATING_METHODS = frozenset({
    # list
    "append", "extend", "insert", "remove", "reverse", "sort",
    # list/dict/set share pop/clear/update
    "pop", "clear", "update", "popitem", "setdefault",
    # set
    "add", "discard", "difference_update", "intersection_update",
    "symmetric_difference_update",
    # numpy.ndarray
    "fill", "put", "resize", "partition", "byteswap", "setflags",
    "itemset", "setfield",
})

#: _ContractView methods with key-specific semantics.
_VIEW_READ_METHODS = ("get",)


@dataclass
class FunctionEffects:
    """What one stage function does to its state-view argument."""

    name: str
    lineno: int
    param: str | None
    #: key -> line of first certain access of each kind
    reads: dict = field(default_factory=dict)
    writes: dict = field(default_factory=dict)
    deletes: dict = field(default_factory=dict)
    #: key -> (line, what) for certain in-place mutations
    mutations: dict = field(default_factory=dict)
    #: ``key in view`` membership probes (usage, never a violation)
    probes: dict = field(default_factory=dict)
    #: keys whose alias meets an unknown method/callee (may mutate)
    maybe_mutated: set = field(default_factory=set)
    #: the view escapes (passed / iterated / unpacked): deadness and
    #: completeness heuristics must stand down
    opaque: bool = False
    #: a subscript used a non-literal key
    dynamic: bool = False

    def touched(self):
        """Keys with any certain or probed usage."""
        return (set(self.reads) | set(self.writes) | set(self.deletes)
                | set(self.mutations) | set(self.probes))


@dataclass
class StageDecl:
    """One ``add_*`` call: declared contract + resolved effects."""

    layer: str
    name: str
    lineno: int
    col: int
    reads: object  # frozenset | UNKNOWN | None (side missing)
    writes: object
    on_error: str
    fallback_given: bool
    effects: FunctionEffects | None
    fallback_effects: FunctionEffects | None

    @property
    def declared(self):
        return (isinstance(self.reads, frozenset)
                and isinstance(self.writes, frozenset))

    def effect_sets(self):
        """Main + fallback effects that could run under this contract."""
        return [fx for fx in (self.effects, self.fallback_effects)
                if fx is not None]


@dataclass
class PipelineDecl:
    """One pipeline construction site (grouped add_* calls)."""

    ident: str
    lineno: int
    stages: list
    #: frozenset of literal initial-state keys, or None when any
    #: observed ``run()`` call passes a non-literal initial state
    initial_keys: object = frozenset()


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one source file."""

    path: str
    tree: ast.Module
    pipelines: list
    functions: dict
    numpy_aliases: set

    def finding(self, code, node, message, *, stage=None):
        """Build a Finding anchored at an AST node (late import to
        keep this module importable standalone)."""
        from .findings import Finding, get_rule
        rule = get_rule(code)
        return Finding(path=self.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       code=code, severity=rule.severity,
                       message=message, stage=stage)


# ---------------------------------------------------------------------------
# Stage-function effect analysis
# ---------------------------------------------------------------------------

def _const_str(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _EffectsVisitor(ast.NodeVisitor):
    """Single pass over a stage function's body collecting effects."""

    def __init__(self, effects, aliases):
        self.fx = effects
        self.param = effects.param
        self.aliases = aliases

    # -- helpers -------------------------------------------------------------

    def _view_key(self, node):
        """('key', k) for ``view["k"]``, ('dynamic', None) for a
        non-literal subscript of the view, None otherwise."""
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.param):
            key = _const_str(node.slice)
            if key is None:
                return ("dynamic", None)
            return ("key", key)
        return None

    def _root_key(self, node):
        """State key behind an attribute/subscript chain or alias."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            hit = self._view_key(node)
            if hit is not None:
                return hit[1]  # None for dynamic, which is fine
            node = node.value
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        return None

    def _read(self, key, node):
        self.fx.reads.setdefault(key, node.lineno)

    def _write(self, key, node):
        self.fx.writes.setdefault(key, node.lineno)

    def _delete(self, key, node):
        self.fx.deletes.setdefault(key, node.lineno)

    def _mutate(self, key, node, what):
        self.fx.mutations.setdefault(key, (node.lineno, what))

    # -- the view itself -----------------------------------------------------

    def visit_Name(self, node):
        if node.id == self.param:
            # The bare view reached an unrecognized position: it
            # escapes the static horizon (call argument, return,
            # iteration, dict(view), **view ...).
            self.fx.opaque = True
        elif (isinstance(node.ctx, ast.Load)
                and node.id in self.aliases):
            # An alias reached an unrecognized position; its target
            # may be mutated by whatever consumes it.
            self.fx.maybe_mutated.add(self.aliases[node.id])

    def visit_Subscript(self, node):
        hit = self._view_key(node)
        if hit is not None:
            kind, key = hit
            if kind == "dynamic":
                self.fx.dynamic = True
            elif isinstance(node.ctx, ast.Store):
                self._write(key, node)
            elif isinstance(node.ctx, ast.Del):
                self._delete(key, node)
            else:
                self._read(key, node)
            self.visit(node.slice)
            return
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            key = self._root_key(node.value)
            if key is not None:
                self._mutate(key, node, "subscript assignment")
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if (isinstance(node.value, ast.Name)
                and node.value.id == self.param):
            # A view method accessed without a recognized call form
            # (e.g. ``f = state.get``): treat as an escape.
            self.fx.opaque = True
            return
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            key = self._root_key(node.value)
            if key is not None:
                self._mutate(key, node,
                             f"attribute .{node.attr} assignment")
        self.generic_visit(node)

    # -- statements with read+write / mutation semantics ---------------------

    def visit_AugAssign(self, node):
        target = node.target
        hit = self._view_key(target)
        if hit is not None:
            kind, key = hit
            if kind == "dynamic":
                self.fx.dynamic = True
            else:
                # ``view["k"] += ...`` goes through __getitem__ then
                # __setitem__: a read and a write -- and an in-place
                # op on a mutable value besides.
                self._read(key, target)
                self._write(key, target)
                self._mutate(key, target, "augmented assignment")
            self.visit(node.value)
            return
        if isinstance(target, ast.Name):
            key = self.aliases.get(target.id)
            if key is not None:
                self._mutate(key, target, "augmented assignment")
            self.visit(node.value)
            return
        key = self._root_key(
            target.value if isinstance(
                target, (ast.Attribute, ast.Subscript)) else target)
        if key is not None:
            self._mutate(key, target, "augmented assignment")
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name)
                    and base.id == self.param):
                self._view_method(node, func.attr)
                return
            hit = self._view_key(base)
            if hit is not None:
                kind, key = hit
                if kind == "key" and func.attr in MUTATING_METHODS:
                    self._mutate(key, node,
                                 f".{func.attr}() on read value")
                self.visit(base)
                self._visit_args(node)
                return
            if isinstance(base, ast.Name) and base.id in self.aliases:
                key = self.aliases[base.id]
                if func.attr in MUTATING_METHODS:
                    self._mutate(key, node,
                                 f".{func.attr}() on read value")
                else:
                    self.fx.maybe_mutated.add(key)
                self._visit_args(node)
                return
            key = self._root_key(base)
            if key is not None:
                if func.attr in MUTATING_METHODS:
                    self._mutate(key, node,
                                 f".{func.attr}() on read value")
                else:
                    self.fx.maybe_mutated.add(key)
                self.visit(base)
                self._visit_args(node)
                return
        self.generic_visit(node)

    def _visit_args(self, node):
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def _view_method(self, node, attr):
        """A method call directly on the view: model the mapping API."""
        if attr in _VIEW_READ_METHODS:
            key = _const_str(node.args[0]) if node.args else None
            if key is None:
                self.fx.dynamic = True
            else:
                self._read(key, node)
            for arg in node.args[1:]:
                self.visit(arg)
            self._visit_kwargs(node)
        elif attr == "setdefault":
            key = _const_str(node.args[0]) if node.args else None
            if key is None:
                self.fx.dynamic = True
            else:
                self._read(key, node)
                self._write(key, node)
            for arg in node.args[1:]:
                self.visit(arg)
        elif attr == "pop":
            key = _const_str(node.args[0]) if node.args else None
            if key is None:
                self.fx.dynamic = True
            else:
                self._read(key, node)
                self._delete(key, node)
            for arg in node.args[1:]:
                self.visit(arg)
        elif attr == "update":
            for arg in node.args:
                if isinstance(arg, ast.Dict) and all(
                        _const_str(k) is not None for k in arg.keys):
                    for k, v in zip(arg.keys, arg.values):
                        self._write(_const_str(k), k)
                        self.visit(v)
                else:
                    self.fx.opaque = True
                    self.visit(arg)
            for kw in node.keywords:
                if kw.arg is None:  # **mapping
                    self.fx.opaque = True
                else:
                    self._write(kw.arg, kw.value)
                self.visit(kw.value)
        else:
            # keys()/values()/items()/copy()/clear()/unknown: the
            # whole key space is involved.
            self.fx.opaque = True
            self._visit_args(node)

    def _visit_kwargs(self, node):
        for kw in node.keywords:
            self.visit(kw.value)

    # -- usages that are not contract traffic --------------------------------

    def visit_Compare(self, node):
        if (len(node.ops) == 1
                and isinstance(node.ops[0], (ast.In, ast.NotIn))
                and isinstance(node.comparators[0], ast.Name)
                and node.comparators[0].id == self.param):
            key = _const_str(node.left)
            if key is not None:
                self.fx.probes.setdefault(key, node.lineno)
            else:
                self.visit(node.left)
            return
        self.generic_visit(node)


def _state_key_of(node, param):
    """Key for ``view["k"]`` / ``view.get("k")`` value expressions."""
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param):
        return _const_str(node.slice)
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == param
            and node.args):
        return _const_str(node.args[0])
    return None


def _collect_aliases(fn_node, param):
    """Flow-insensitive alias map: local name -> state key.

    A name qualifies only when every binding observed in the function
    assigns it the same ``view["key"]`` (or ``view.get("key")``); any
    other binding poisons it.
    """
    bindings = {}

    def bind(name, key):
        bindings.setdefault(name, set()).add(key)

    def bind_target(target, value):
        if isinstance(target, ast.Name):
            bind(target.id, _state_key_of(value, param)
                 if value is not None else None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = target.elts
            values = (value.elts
                      if isinstance(value, (ast.Tuple, ast.List))
                      and len(value.elts) == len(elts)
                      else [None] * len(elts))
            for elt, sub in zip(elts, values):
                bind_target(elt, sub)

    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind_target(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            bind_target(node.target, node.value)
        # (ast.AugAssign is deliberately absent: an in-place op does
        # not rebind, so the alias survives)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind_target(node.target, None)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind_target(item.optional_vars, None)
        elif isinstance(node, ast.comprehension):
            bind_target(node.target, None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)) and node is not fn_node:
            for arg in _all_args(node.args):
                bind(arg, None)
    return {name: next(iter(keys))
            for name, keys in bindings.items()
            if len(keys) == 1 and next(iter(keys)) is not None}


def _all_args(arguments):
    names = [a.arg for a in arguments.posonlyargs + arguments.args
             + arguments.kwonlyargs]
    if arguments.vararg:
        names.append(arguments.vararg.arg)
    if arguments.kwarg:
        names.append(arguments.kwarg.arg)
    return names


def function_effects(fn_node):
    """Analyze one function / lambda's use of its first parameter."""
    if isinstance(fn_node, ast.Lambda):
        name = "<lambda>"
        body = [fn_node.body]
    else:
        name = fn_node.name
        body = fn_node.body
    args = fn_node.args
    positional = args.posonlyargs + args.args
    param = positional[0].arg if positional else None
    effects = FunctionEffects(name=name, lineno=fn_node.lineno,
                              param=param)
    if param is None:
        effects.opaque = True
        return effects
    aliases = _collect_aliases(fn_node, param)
    visitor = _EffectsVisitor(effects, aliases)
    for statement in body:
        visitor.visit(statement)
    return effects


# ---------------------------------------------------------------------------
# Pipeline / contract extraction
# ---------------------------------------------------------------------------

def _parse_contract(node):
    """Evaluate a reads=/writes= expression to a key set if literal.

    ``None`` marks a missing side (absent or a literal ``None``), which
    ``Stage()`` rejects at construction.
    """
    if node is None or (isinstance(node, ast.Constant)
                        and node.value is None):
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        keys = [_const_str(elt) for elt in node.elts]
        if all(key is not None for key in keys):
            return frozenset(keys)
    return UNKNOWN


def _chain_root(call):
    """Resolve what object an ``add_*`` / ``run`` call acts on.

    Returns ``("var", name)``, ``("ctor", id(ctor_call))`` or None.
    """
    node = call.func.value
    while True:
        if isinstance(node, ast.Name):
            return ("var", node.id)
        if isinstance(node, ast.Call):
            func = node.func
            ctor = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if ctor == "DecisionPipeline":
                return ("ctor", id(node))
            if (isinstance(func, ast.Attribute)
                    and func.attr in ADD_METHODS):
                node = func.value
                continue
            return None
        return None


def _resolve_function(node, functions):
    """Stage-function expression -> FunctionEffects, if resolvable."""
    if isinstance(node, ast.Name):
        target = functions.get(node.id)
        if target is not None:
            return function_effects(target)
        return None
    if isinstance(node, ast.Lambda):
        return function_effects(node)
    return None


def _parse_initial_state(call):
    """Literal initial-state keys of one ``run()`` call, or None."""
    node = None
    if call.args:
        node = call.args[0]
    for kw in call.keywords:
        if kw.arg == "initial_state":
            node = kw.value
    if node is None:
        return frozenset()
    if isinstance(node, ast.Dict):
        keys = [_const_str(k) for k in node.keys]
        if all(key is not None for key in keys):
            return frozenset(keys)
        return None
    if (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args
            and all(kw.arg is not None for kw in node.keywords)):
        return frozenset(kw.arg for kw in node.keywords)
    return None


def _stage_from_call(call, attr, functions):
    """Parse one ``add_*`` call into a StageDecl (None if opaque)."""
    layer = ADD_METHODS[attr]
    args = list(call.args)
    if layer is None:  # add_stage(layer, name, function)
        layer = _const_str(args[0]) if args else None
        args = args[1:]
    name = _const_str(args[0]) if args else None
    fn_node = args[1] if len(args) > 1 else None
    keywords = {kw.arg: kw.value for kw in call.keywords
                if kw.arg is not None}
    unpacked = len(keywords) < len(call.keywords)  # **mapping
    if fn_node is None:
        fn_node = keywords.get("function")
    if name is None or layer is None:
        return None
    on_error_node = keywords.get("on_error")
    on_error = _const_str(on_error_node) if on_error_node else "fail"
    # A side absent beside **mapping may come from the mapping.
    reads, writes = (
        UNKNOWN if side not in keywords and unpacked
        else _parse_contract(keywords.get(side))
        for side in ("reads", "writes"))
    return StageDecl(
        layer=layer, name=name,
        lineno=call.func.lineno,
        col=call.func.col_offset,
        reads=reads, writes=writes,
        on_error=on_error or "fail",
        fallback_given="fallback" in keywords,
        effects=(_resolve_function(fn_node, functions)
                 if fn_node is not None else None),
        fallback_effects=(_resolve_function(keywords["fallback"],
                                            functions)
                          if "fallback" in keywords else None),
    )


def extract_module(path, source):
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    tree = ast.parse(source, filename=str(path))

    functions = {}
    numpy_aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")

    # Map DecisionPipeline constructor calls to the variable that
    # holds the result, so chained construction and later var-based
    # add_* calls land in the same pipeline group.
    ctor_var = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            root = None
            value = node.value
            func = value.func
            ctor = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if ctor == "DecisionPipeline":
                root = ("ctor", id(value))
            elif (isinstance(func, ast.Attribute)
                    and func.attr in ADD_METHODS):
                root = _chain_root(value)
            if root is not None and root[0] == "ctor":
                ctor_var[root[1]] = node.targets[0].id

    add_calls = []
    run_calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        if attr in ADD_METHODS or attr == "run":
            root = _chain_root(node)
            if root is None:
                continue
            if root[0] == "ctor" and root[1] in ctor_var:
                root = ("var", ctor_var[root[1]])
            if attr == "run":
                run_calls.append((root, node))
            else:
                add_calls.append((root, attr, node))

    add_calls.sort(key=lambda item: (item[2].func.lineno,
                                     item[2].func.col_offset))

    groups = {}
    for root, attr, call in add_calls:
        stage = _stage_from_call(call, attr, functions)
        if stage is None:
            continue
        ident = root[1] if root[0] == "var" else "<pipeline>"
        pipeline = groups.get(root)
        if pipeline is None:
            pipeline = PipelineDecl(ident=str(ident),
                                    lineno=call.func.lineno,
                                    stages=[])
            groups[root] = pipeline
        pipeline.stages.append(stage)

    for root, call in run_calls:
        pipeline = groups.get(root)
        if pipeline is None:
            continue
        keys = _parse_initial_state(call)
        if keys is None or pipeline.initial_keys is None:
            pipeline.initial_keys = None
        else:
            pipeline.initial_keys = pipeline.initial_keys | keys
    if not run_calls:
        # No run() observed in this module: initial state unknown.
        for pipeline in groups.values():
            pipeline.initial_keys = None
    else:
        observed = {root for root, _ in run_calls}
        for root, pipeline in groups.items():
            if root not in observed:
                pipeline.initial_keys = None

    pipelines = [p for p in groups.values() if p.stages]
    return ModuleInfo(path=str(path), tree=tree, pipelines=pipelines,
                      functions=functions,
                      numpy_aliases=numpy_aliases)
