"""The reprolint rules (``repro lint --list-rules`` lists them).

Each rule enforces one simulator-specific contract that a generic
linter cannot see; docs/LINTING.md is the user-facing catalogue with
rationale and examples.  Rules are deliberately heuristic where full
type inference would be needed — every heuristic is written down next
to the code that implements it, and every finding can be silenced
with ``# reprolint: disable=RLxxx`` where the rule is wrong.
"""

from __future__ import annotations

import ast
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.lint.core import (Finding, Rule, dotted_name, import_map,
                             iter_parents, module_constants, resolve_dotted)

#: Subpackages whose code feeds simulated outcomes and therefore must
#: be bit-reproducible (RL001's enforcement scope).
DETERMINISM_SCOPE: Tuple[Tuple[str, ...], ...] = (
    ("repro", "pipeline"),
    ("repro", "core"),
    ("repro", "predictors"),
    ("repro", "frontend"),
    ("repro", "memory"),
    ("repro", "trace"),
    ("repro", "criticality"),
)


# ----------------------------------------------------------------------
# RL001 — determinism
# ----------------------------------------------------------------------
class DeterminismRule(Rule):
    """No ambient nondeterminism inside the simulated machine.

    Bans module-level RNG calls (seeded ``random.Random`` instances
    are fine), wall-clock reads, OS entropy, and iteration over
    ``set`` displays/constructors (unordered) inside the packages
    listed in :data:`DETERMINISM_SCOPE`.
    """

    code = "RL001"
    name = "determinism"
    description = ("no module-level RNG, wall-clock, OS entropy, or "
                   "unordered-set iteration in simulated components")
    scope = DETERMINISM_SCOPE

    #: Canonical dotted names whose *call* is nondeterministic.
    BANNED_CALLS: Dict[str, str] = {
        "os.urandom": "thread RNG state through a seeded random.Random",
        "uuid.uuid4": "derive IDs from seeds/config, not entropy",
        "time.time": "derive timestamps outside the simulated machine",
        "time.time_ns": "derive timestamps outside the simulated machine",
        "time.monotonic": "wall-clock must not influence simulation",
        "time.monotonic_ns": "wall-clock must not influence simulation",
        "time.perf_counter": "wall-clock must not influence simulation",
        "time.perf_counter_ns": "wall-clock must not influence simulation",
        "time.process_time": "wall-clock must not influence simulation",
        "datetime.datetime.now": "wall-clock must not influence simulation",
        "datetime.datetime.utcnow": "wall-clock must not influence simulation",
        "datetime.datetime.today": "wall-clock must not influence simulation",
        "datetime.date.today": "wall-clock must not influence simulation",
    }
    #: Dotted prefixes that are wholesale nondeterministic.
    BANNED_PREFIXES: Tuple[Tuple[str, str], ...] = (
        ("random.", "use a seeded random.Random instance instead of "
                    "the shared module-level RNG"),
        ("secrets.", "simulators have no business with secrets"),
    )
    #: ``random.*`` attributes that are safe: the class itself (callers
    #: seed their own instance) and seed-free helpers.
    RANDOM_ALLOWED: Tuple[str, ...] = ("random.Random",
                                       "random.SystemRandom")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        findings: List[Finding] = []
        imports = import_map(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = resolve_dotted(node.func, imports)
                if name is None:
                    continue
                hint = self.BANNED_CALLS.get(name)
                if hint is None:
                    for prefix, prefix_hint in self.BANNED_PREFIXES:
                        if name.startswith(prefix) \
                                and name not in self.RANDOM_ALLOWED:
                            hint = prefix_hint
                            break
                if hint is not None:
                    findings.append(Finding(
                        self.code, path, node.lineno, node.col_offset,
                        f"nondeterministic call {name}()", hint))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_unordered(node.iter, imports):
                    findings.append(Finding(
                        self.code, path, node.iter.lineno,
                        node.iter.col_offset,
                        "iteration over an unordered set",
                        "iterate sorted(...) or use an ordered "
                        "container — set order is hash-seed dependent"))
        return findings

    @staticmethod
    def _is_unordered(node: ast.AST, imports: Dict[str, str]) -> bool:
        # Heuristic: only syntactically obvious sets are caught — a
        # set display/comprehension or a direct set()/frozenset()
        # constructor call in the iterable position.
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = resolve_dotted(node.func, imports)
            return name in ("set", "frozenset")
        return False


# ----------------------------------------------------------------------
# Structural locator shared by RL002/RL003.
# ----------------------------------------------------------------------
def _sole_self_call(stmts: Sequence[ast.stmt]) -> Optional[ast.Call]:
    """The single ``self.<method>(...)`` call a branch consists of."""
    if len(stmts) != 1 or not isinstance(stmts[0], ast.Expr):
        return None
    call = stmts[0].value
    if isinstance(call, ast.Call) \
            and isinstance(call.func, ast.Attribute) \
            and isinstance(call.func.value, ast.Name) \
            and call.func.value.id == "self":
        return call
    return None


def _call_signature(call: ast.Call) -> str:
    return ast.unparse(ast.Tuple(
        elts=list(call.args)
        + [kw.value for kw in sorted(call.keywords,
                                     key=lambda k: k.arg or "")],
        ctx=ast.Load()))


class LoopDispatch(NamedTuple):
    """The timing-loop dispatch located by :func:`find_loop_dispatch`."""

    #: Optimized scalar loop method (the ``if`` arm).
    hot_name: str
    #: Vector backend method (the ``else`` arm).
    vector_name: str
    #: The enclosing class.
    cls: ast.ClassDef


def find_loop_dispatch(tree: ast.Module) -> Optional[LoopDispatch]:
    """Locate the timing-loop dispatch *structurally*.

    The engine's ``run()`` selects a timing loop with the backend
    dispatch (docs/VECTOR.md)::

        if self._resolve_backend() == "scalar":
            self._time_trace(trace, warmup, result, gap_hist)
        else:
            self._time_trace_vector(trace, warmup, result, gap_hist)

    so the shape we look for — independent of any method naming — is
    an ``if`` whose test involves a call and whose two branches each
    consist of exactly one ``self.<method>(...)`` call with identical
    arguments: the ``if`` branch is the scalar hot loop, the ``else``
    branch the vector backend.
    """
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if not isinstance(node, ast.If):
                continue
            if not any(isinstance(sub, ast.Call)
                       for sub in ast.walk(node.test)):
                continue
            hot_call = _sole_self_call(node.body)
            vec_call = _sole_self_call(node.orelse)
            if hot_call is None or vec_call is None:
                continue
            assert isinstance(hot_call.func, ast.Attribute)
            assert isinstance(vec_call.func, ast.Attribute)
            hot_name = hot_call.func.attr
            vec_name = vec_call.func.attr
            if hot_name == vec_name:
                continue
            if _call_signature(hot_call) != _call_signature(vec_call):
                continue
            return LoopDispatch(hot_name, vec_name, cls)
    return None


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _aliases_of(func: ast.FunctionDef, owner: str,
                attr: str) -> Set[str]:
    """Local names bound directly from ``<owner>.<attr>`` in ``func``
    (e.g. ``cfg = self.config``)."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == attr \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == owner:
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    return names


def _attr_reads_on(func: ast.FunctionDef, owner: str,
                   attr: Optional[str], aliases: Set[str]) -> Set[str]:
    """Attribute names read off ``<owner>.<attr>`` or any alias of it
    inside ``func`` (plain ``ast.Attribute`` loads only — ``getattr``
    string forms are deliberately excluded, they are dynamic
    capability probes, not model parameters)."""
    reads: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Attribute) \
                or not isinstance(node.ctx, ast.Load):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            reads.add(node.attr)
        elif attr is not None and isinstance(base, ast.Attribute) \
                and base.attr == attr \
                and isinstance(base.value, ast.Name) \
                and base.value.id == owner:
            reads.add(node.attr)
    return reads


# ----------------------------------------------------------------------
# RL002 — hot-path purity
# ----------------------------------------------------------------------
class HotPathPurityRule(Rule):
    """The optimized timing loop stays allocation- and lookup-lean.

    Inside the per-op loop of the *hot* method (located via
    :func:`find_loop_dispatch`, never by name): no container
    allocations, no repeated ``self.`` attribute lookups, and no
    telemetry calls outside a capability-flag gate.
    """

    code = "RL002"
    name = "hot-path-purity"
    description = ("no allocations, self-attribute lookups, or "
                   "ungated telemetry in the optimized timing loop")
    scope = (("repro", "pipeline"),)

    #: Method attributes that publish telemetry when called.
    TELEMETRY_ATTRS: Tuple[str, ...] = ("observe", "record", "counter",
                                        "histogram", "counters_from")
    #: Builtins whose call allocates a container.
    ALLOCATING_BUILTINS: Tuple[str, ...] = ("list", "dict", "set",
                                            "frozenset", "bytearray")
    #: Substrings that mark an ``if`` test as a capability gate.
    GATE_TOKENS: Tuple[str, ...] = ("collect", "need", "is not None")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        dispatch = find_loop_dispatch(tree)
        if dispatch is None:
            return []
        hot_name, _, cls = dispatch
        hot = _method(cls, hot_name)
        if hot is None:
            return []
        loop = self._main_loop(hot)
        if loop is None:
            return []
        findings: List[Finding] = []
        parents = iter_parents(hot)
        telemetry_names = self._telemetry_aliases(hot)
        for node in ast.walk(loop):
            if node is loop:
                continue
            findings.extend(self._check_alloc(node, path, hot_name))
            findings.extend(self._check_self_load(node, path, hot_name))
            findings.extend(self._check_telemetry(
                node, path, loop, parents, telemetry_names))
        return findings

    @staticmethod
    def _main_loop(func: ast.FunctionDef) -> Optional[ast.For]:
        # The per-op loop is the biggest For in the method body.
        best: Optional[ast.For] = None
        best_size = 0
        for node in ast.walk(func):
            if isinstance(node, ast.For):
                size = sum(1 for _ in ast.walk(node))
                if size > best_size:
                    best, best_size = node, size
        return best

    def _telemetry_aliases(self, func: ast.FunctionDef) -> Set[str]:
        """Locals bound from a telemetry method (``observe_gap =
        gap_hist.observe``) — calls through them count as telemetry."""
        names: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and any(
                    isinstance(sub, ast.Attribute)
                    and sub.attr in self.TELEMETRY_ATTRS
                    for sub in ast.walk(node.value)):
                names.update(target.id for target in node.targets
                             if isinstance(target, ast.Name))
        return names

    def _check_alloc(self, node: ast.AST, path: str,
                     hot_name: str) -> List[Finding]:
        message = hint = None
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            kind = type(node).__name__.lower()
            message = f"{kind} allocation inside the {hot_name} per-op loop"
            hint = "hoist the container out of the loop or reuse one"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            message = ("comprehension allocates inside the "
                       f"{hot_name} per-op loop")
            hint = "hoist or rewrite as an in-place update"
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id in self.ALLOCATING_BUILTINS:
            message = (f"{node.func.id}() allocation inside the "
                       f"{hot_name} per-op loop")
            hint = "hoist the container out of the loop or reuse one"
        if message is None:
            return []
        return [Finding(self.code, path, node.lineno,
                        node.col_offset, message, hint or "")]

    def _check_self_load(self, node: ast.AST, path: str,
                         hot_name: str) -> List[Finding]:
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return [Finding(
                self.code, path, node.lineno, node.col_offset,
                f"self.{node.attr} lookup inside the {hot_name} "
                "per-op loop",
                f"bind `{node.attr} = self.{node.attr}` to a local "
                "before the loop")]
        return []

    def _check_telemetry(self, node: ast.AST, path: str, loop: ast.For,
                         parents: Dict[ast.AST, ast.AST],
                         aliases: Set[str]) -> List[Finding]:
        if not isinstance(node, ast.Call):
            return []
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in self.TELEMETRY_ATTRS:
            label = func.attr
        elif isinstance(func, ast.Name) and func.id in aliases:
            label = func.id
        else:
            return []
        if self._gated(node, loop, parents, label):
            return []
        return [Finding(
            self.code, path, node.lineno, node.col_offset,
            f"telemetry call {label}(...) not gated behind a "
            "capability flag in the per-op loop",
            "wrap in `if collect_...:` / `if ... is not None:` so "
            "disabled telemetry costs one branch")]

    def _gated(self, call: ast.Call, loop: ast.For,
               parents: Dict[ast.AST, ast.AST], label: str) -> bool:
        # Heuristic: some enclosing `if` between the call and the loop
        # must read a capability flag — its test mentions the callee,
        # a collect_*/need_* name, or an `is not None` check.
        node: ast.AST = call
        while node is not loop:
            parent = parents.get(node)
            if parent is None:
                return False
            if isinstance(parent, ast.If):
                test_src = ast.unparse(parent.test)
                if label in test_src or any(
                        token in test_src
                        for token in self.GATE_TOKENS):
                    return True
            node = parent
        return False


# ----------------------------------------------------------------------
# RL003 — scalar/vector loop drift
# ----------------------------------------------------------------------
class DualLoopDriftRule(Rule):
    """The vector timing loop reads the same model as the scalar loop.

    :func:`find_loop_dispatch` locates the scalar hot loop in the
    engine class; the vector loop lives in its own module
    (docs/VECTOR.md), so the checks run cross-file in :meth:`finish`
    once both sides were scanned.  The vector loop's *effective*
    config reads must equal the scalar hot loop's ("effective" folds
    in ``__init__``: a loop may precompute a config attribute into a
    dispatch table at construction time, e.g. ``ports``, so each
    loop's set is its own direct reads unioned with the
    constructor's).  Its hook *delegation probe* (``is not
    ValuePredictor.<hook>`` comparisons) must cover every predictor
    hook the scalar loop calls, and it must consume the trace through
    a declared streaming surface (``chunks``/``soa_windows``), or its
    window boundaries silently diverge from the scalar loop's.
    """

    code = "RL003"
    name = "dual-loop-drift"
    description = ("the vector timing loop must read the scalar loop's "
                   "config attributes, probe every predictor hook it "
                   "calls, and stream the trace")
    scope = (("repro", "pipeline"),)

    #: TraceSource streaming surfaces a timing loop may consume.
    STREAM_SURFACES: Tuple[str, ...] = ("chunks", "soa_windows")

    def __init__(self) -> None:
        #: Engine-side record once the dispatch was located.
        self._dispatch: Optional[Dict[str, object]] = None
        #: Vector-loop records (module-level functions with
        #: ``ValuePredictor`` identity probes).
        self._vector_loops: List[Dict[str, object]] = []

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        self._scan_vector_loops(tree, path)
        dispatch = find_loop_dispatch(tree)
        if dispatch is None:
            return []
        hot_name, vec_name, cls = dispatch
        hot = _method(cls, hot_name)
        missing = [name for name in (hot_name, vec_name)
                   if _method(cls, name) is None]
        if missing:
            return [Finding(
                self.code, path, cls.lineno, cls.col_offset,
                f"dispatch targets missing method {missing[0]}",
                "keep every timing-loop method defined in the class")]
        assert hot is not None
        init_reads = self._init_config_reads(cls)
        self._dispatch = {
            "path": path,
            "hot_name": hot_name,
            "hot_cfg": self._config_reads(hot) | init_reads,
            "hot_hooks": self._predictor_hooks(hot),
            "init_reads": init_reads,
        }
        return []

    # -- cross-file vector-loop half -----------------------------------
    @staticmethod
    def _hook_probes(func: ast.FunctionDef) -> Set[str]:
        """Predictor hooks probed by identity against the
        ``ValuePredictor`` base (``<x> is not ValuePredictor.<hook>``)
        — the vector backend's delegation test."""
        probes: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            for comparator in node.comparators:
                if isinstance(comparator, ast.Attribute) \
                        and isinstance(comparator.value, ast.Name) \
                        and comparator.value.id == "ValuePredictor":
                    probes.add(comparator.attr)
        return probes

    def _scan_vector_loops(self, tree: ast.Module, path: str) -> None:
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef):
                continue
            probes = self._hook_probes(func)
            if not probes:
                continue
            args = func.args.args
            engine_arg = args[0].arg if args else ""
            trace_arg = args[1].arg if len(args) > 1 else ""
            aliases = _aliases_of(func, engine_arg, "config")
            self._vector_loops.append({
                "path": path,
                "line": func.lineno,
                "name": func.name,
                "cfg": _attr_reads_on(func, engine_arg, "config",
                                      aliases),
                "probes": probes,
                "stream": _attr_reads_on(func, "", None, {trace_arg}),
            })

    def finish(self) -> List[Finding]:
        dispatch, self._dispatch = self._dispatch, None
        loops, self._vector_loops = self._vector_loops, []
        if dispatch is None or not loops:
            return []  # partial run: no cross-file ground truth
        findings: List[Finding] = []
        hot_name = dispatch["hot_name"]
        assert isinstance(hot_name, str)
        hot_cfg = dispatch["hot_cfg"]
        hot_hooks = dispatch["hot_hooks"]
        init_reads = dispatch["init_reads"]
        assert isinstance(hot_cfg, set) and isinstance(hot_hooks, set) \
            and isinstance(init_reads, set)
        for loop in loops:
            path, line = loop["path"], loop["line"]
            name = loop["name"]
            assert isinstance(path, str) and isinstance(line, int) \
                and isinstance(name, str)
            cfg = loop["cfg"]
            probes = loop["probes"]
            stream = loop["stream"]
            assert isinstance(cfg, set) and isinstance(probes, set) \
                and isinstance(stream, set)
            vec_cfg = cfg | init_reads
            for only, where in ((sorted(vec_cfg - hot_cfg), name),
                                (sorted(hot_cfg - vec_cfg), hot_name)):
                if only:
                    findings.append(Finding(
                        self.code, path, line, 0,
                        f"config attribute drift: {', '.join(only)} "
                        f"read by {where} but not the other loop",
                        "read the same config attributes in the "
                        "vector loop as in the scalar hot loop"))
            unprobed = sorted(hot_hooks - probes)
            if unprobed:
                findings.append(Finding(
                    self.code, path, line, 0,
                    f"delegation-probe drift: scalar loop calls "
                    f"predictor hook(s) {', '.join(unprobed)} that "
                    f"{name} never probes before taking the vector "
                    "path",
                    "compare every hook the scalar loop calls against "
                    "its ValuePredictor default (`is not "
                    "ValuePredictor.<hook>`) and delegate when "
                    "overridden"))
            stray = sorted(stream - set(self.STREAM_SURFACES))
            if not stream or stray:
                what = ", ".join(stray) if stray else "nothing"
                findings.append(Finding(
                    self.code, path, line, 0,
                    f"trace-stream drift: {name} consumes the trace "
                    f"via {what}, not a declared streaming surface",
                    "consume the trace through "
                    f"{' or '.join(self.STREAM_SURFACES)} — the "
                    "window seam is part of the bit-identity "
                    "contract"))
        return findings

    @staticmethod
    def _config_reads(func: ast.FunctionDef) -> Set[str]:
        aliases = _aliases_of(func, "self", "config")
        return _attr_reads_on(func, "self", "config", aliases)

    @staticmethod
    def _init_config_reads(cls: ast.ClassDef) -> Set[str]:
        init = _method(cls, "__init__")
        if init is None:
            return set()
        # The constructor parameter stored as self.config is the same
        # object the loops read through — its reads count for both.
        param: Optional[str] = None
        for node in ast.walk(init):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Name) \
                    and any(isinstance(t, ast.Attribute)
                            and t.attr == "config"
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                            for t in node.targets):
                param = node.value.id
                break
        reads = _attr_reads_on(init, "self", "config",
                               _aliases_of(init, "self", "config"))
        if param is not None:
            reads |= _attr_reads_on(init, "", None, {param})
        return reads

    @staticmethod
    def _predictor_hooks(func: ast.FunctionDef) -> Set[str]:
        aliases = _aliases_of(func, "self", "predictor")
        return _attr_reads_on(func, "self", "predictor", aliases)


# ----------------------------------------------------------------------
# RL004 — error discipline
# ----------------------------------------------------------------------
class ErrorDisciplineRule(Rule):
    """Failures flow through the ``repro.errors`` taxonomy.

    Flags bare/broad ``except`` clauses (they swallow
    ``NonTerminatingSimulation`` and friends indiscriminately),
    raising ``Exception``/``BaseException``/``RuntimeError`` directly,
    and ``raise ValueError`` inside constructors — configuration
    rejection is :class:`repro.errors.ConfigError`'s job (it subclasses
    ``ValueError``, so callers keep working).
    """

    code = "RL004"
    name = "error-discipline"
    description = ("no bare/broad except; raise repro.errors "
                   "subclasses, not builtin exceptions")

    BROAD: Tuple[str, ...] = ("Exception", "BaseException")
    CTOR_NAMES: Tuple[str, ...] = ("__init__", "__post_init__")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        findings: List[Finding] = []
        parents = iter_parents(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                findings.extend(self._check_handler(node, path))
            elif isinstance(node, ast.Raise):
                findings.extend(self._check_raise(node, path, parents))
        return findings

    def _check_handler(self, node: ast.ExceptHandler,
                       path: str) -> List[Finding]:
        if node.type is None:
            return [Finding(
                self.code, path, node.lineno, node.col_offset,
                "bare except swallows every failure, including the "
                "repro.errors guardrails",
                "catch the specific repro.errors subclass (or "
                "ReproError for the whole taxonomy)")]
        names = [node.type] if not isinstance(node.type, ast.Tuple) \
            else list(node.type.elts)
        for entry in names:
            name = dotted_name(entry)
            if name in self.BROAD:
                return [Finding(
                    self.code, path, node.lineno, node.col_offset,
                    f"broad `except {name}` outside a crash-isolation "
                    "boundary",
                    "catch ReproError / a specific subclass; only "
                    "worker watchdogs may catch everything "
                    "(suppress with a comment saying so)")]
        return []

    def _check_raise(self, node: ast.Raise, path: str,
                     parents: Dict[ast.AST, ast.AST]) -> List[Finding]:
        exc = node.exc
        if exc is None:
            return []  # re-raise
        target = exc.func if isinstance(exc, ast.Call) else exc
        name = dotted_name(target)
        if name in self.BROAD:
            return [Finding(
                self.code, path, node.lineno, node.col_offset,
                f"raising builtin {name}",
                "raise the repro.errors subclass that matches the "
                "failure (see src/repro/errors.py)")]
        if name == "RuntimeError":
            return [Finding(
                self.code, path, node.lineno, node.col_offset,
                "raising builtin RuntimeError",
                "raise a repro.errors subclass so campaign retry/"
                "quarantine logic can classify the failure")]
        if name == "ValueError" and self._in_ctor(node, parents):
            return [Finding(
                self.code, path, node.lineno, node.col_offset,
                "raising builtin ValueError in a constructor",
                "raise repro.errors.ConfigError (subclasses "
                "ValueError, so existing callers keep working)")]
        return []

    def _in_ctor(self, node: ast.AST,
                 parents: Dict[ast.AST, ast.AST]) -> bool:
        current = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                return current.name in self.CTOR_NAMES
            current = parents.get(current)
        return False


# ----------------------------------------------------------------------
# RL006 — env-var registry
# ----------------------------------------------------------------------
class EnvRegistryRule(Rule):
    """Every ``REPRO_*`` environment read is declared in the registry.

    ``repro doctor`` and the docs render ``repro.envreg.REGISTRY``;
    an env read the registry doesn't know about is invisible to both,
    and a registry entry nothing reads is stale documentation.
    Recognised read forms: ``os.environ[...]``, ``os.environ.get(...)``
    and ``os.getenv(...)`` with the name as a string literal or a
    module-level string constant (``FAULTS_ENV``-style); names the
    rule cannot resolve statically are skipped, not guessed.
    """

    code = "RL006"
    name = "env-registry"
    description = ("every REPRO_* env read is declared in "
                   "repro.envreg.REGISTRY (and vice versa)")

    def __init__(self, declared: Optional[Set[str]] = None) -> None:
        if declared is None:
            from repro.envreg import REGISTRY
            declared = set(REGISTRY)
        self.declared = declared
        self.read: Set[str] = set()
        self.registry_path: Optional[str] = None

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        if path.replace("\\", "/").endswith("repro/envreg.py"):
            self.registry_path = path
            return []
        findings: List[Finding] = []
        imports = import_map(tree)
        constants = module_constants(tree)
        for node in ast.walk(tree):
            for name_node in self._env_read(node, imports):
                name = self._resolve_name(name_node, constants)
                if name is None or not name.startswith("REPRO_"):
                    continue
                self.read.add(name)
                if name not in self.declared:
                    findings.append(Finding(
                        self.code, path, name_node.lineno,
                        name_node.col_offset,
                        f"environment variable {name} read but not "
                        "declared in repro.envreg.REGISTRY",
                        "add an EnvVar entry in src/repro/envreg.py "
                        "(repro doctor renders the registry)"))
        return findings

    @staticmethod
    def _env_read(node: ast.AST,
                  imports: Dict[str, str]) -> List[ast.expr]:
        """Expressions naming the variable in env-read syntax forms."""
        if isinstance(node, ast.Subscript):
            base = resolve_dotted(node.value, imports)
            if base == "os.environ":
                return [node.slice]
        elif isinstance(node, ast.Call) and node.args:
            func = resolve_dotted(node.func, imports)
            if func in ("os.getenv",):
                return [node.args[0]]
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("get", "pop", "setdefault") \
                    and resolve_dotted(node.func.value,
                                       imports) == "os.environ":
                return [node.args[0]]
        return []

    @staticmethod
    def _resolve_name(node: ast.expr,
                      constants: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return None

    def finish(self) -> List[Finding]:
        if self.registry_path is None or not self.read:
            return []  # partial run: no cross-file ground truth
        findings = [
            Finding(self.code, self.registry_path, 1, 0,
                    f"registry declares {name} but nothing in the "
                    "scanned tree reads it",
                    "drop the stale EnvVar entry (or restore the "
                    "consumer read)")
            for name in sorted(self.declared - self.read)]
        self.read = set()
        self.registry_path = None
        return findings


# ----------------------------------------------------------------------
# RL007 — trace materialization
# ----------------------------------------------------------------------
class TraceMaterializationRule(Rule):
    """Streaming trace sources stay streamed.

    The bounded-RSS guarantee of the :class:`TraceSource` protocol
    dies the moment a consumer flattens the stream — ``list(source)``
    resurrects the whole-trace working set the streaming redesign
    removed.  The rule flags materializing builtins (``list``,
    ``tuple``, ``sorted``) applied to a source-typed name and random
    access (subscription) on one, everywhere except the trace I/O
    layer and the protocol module itself, which by definition convert
    between representations.  Consumers that genuinely need random
    access call ``source.materialize()`` — the searchable, explicit
    escape hatch (see docs/TRACES.md).

    A name is source-typed when a parameter is annotated
    ``TraceSource`` or it is assigned from one of the known source
    constructors (``as_source``, ``stream_trace``, ``open_trace``,
    ``ListSource``/``FileSource``/``ProfileSource``).
    """

    code = "RL007"
    name = "trace-materialization"
    description = ("no whole-trace materialization of a TraceSource "
                   "outside the trace I/O layer (use .materialize() "
                   "where random access is genuinely needed)")

    #: Callables whose result is a TraceSource.
    SOURCE_CALLS: Tuple[str, ...] = ("as_source", "stream_trace",
                                     "open_trace", "ListSource",
                                     "FileSource", "ProfileSource")
    #: Builtins that flatten an iterable into a container.
    MATERIALIZING_BUILTINS: Tuple[str, ...] = ("list", "tuple", "sorted")
    #: Modules allowed to materialize: the format converters.
    ALLOWED_SUFFIXES: Tuple[str, ...] = ("repro/trace/io.py",
                                         "repro/trace/source.py")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        norm = path.replace("\\", "/")
        if any(norm.endswith(suffix) for suffix in self.ALLOWED_SUFFIXES):
            return []
        findings: List[Finding] = []
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            names = self._source_names(func)
            if not names:
                continue
            findings.extend(self._check_func(func, names, path))
        return findings

    def _check_func(self, func: ast.AST, names: Set[str],
                    path: str) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in self.MATERIALIZING_BUILTINS \
                    and node.args \
                    and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id in names:
                findings.append(Finding(
                    self.code, path, node.lineno, node.col_offset,
                    f"{node.func.id}({node.args[0].id}) materializes "
                    "a streaming trace source",
                    "iterate the source (or its .chunks()) instead; "
                    "call .materialize() if random access is "
                    "genuinely required"))
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in names:
                findings.append(Finding(
                    self.code, path, node.lineno, node.col_offset,
                    f"random access {node.value.id}[...] on a "
                    "streaming trace source",
                    "TraceSource is forward-only; call "
                    ".materialize() if random access is genuinely "
                    "required"))
        return findings

    def _source_names(self, func: ast.AST) -> Set[str]:
        """Names in ``func`` that statically look like TraceSources."""
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        names: Set[str] = set()
        for arg in (func.args.posonlyargs + func.args.args
                    + func.args.kwonlyargs):
            if arg.annotation is not None \
                    and self._is_source_annotation(arg.annotation):
                names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call):
                callee = node.value.func
                callee_name = callee.attr \
                    if isinstance(callee, ast.Attribute) \
                    else callee.id if isinstance(callee, ast.Name) \
                    else None
                if callee_name in self.SOURCE_CALLS:
                    names.update(target.id for target in node.targets
                                 if isinstance(target, ast.Name))
        return names

    @staticmethod
    def _is_source_annotation(node: ast.expr) -> bool:
        # Exactly `TraceSource` (possibly dotted, possibly a string
        # annotation) — Union annotations admit list-like inputs, so
        # materializing those is the callee's documented business.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.split(".")[-1] == "TraceSource"
        name = dotted_name(node)
        return name is not None \
            and name.split(".")[-1] == "TraceSource"


# ----------------------------------------------------------------------
# RL008 — lock discipline
# ----------------------------------------------------------------------
#: Docstring marker declaring a helper runs with every class lock held.
_HELD_MARKER = "(lock held)"

#: Builtins that reach an attribute by name.
_DYNAMIC_ACCESS = ("getattr", "setattr", "delattr")


class _ClassLocks(NamedTuple):
    """What RL008 knows about one lock-owning class."""

    name: str
    #: Guarded attribute -> the lock declared for it.
    guards: Dict[str, str]
    #: Condition attribute -> the lock it wraps (``None``: its own).
    conds: Dict[str, Optional[str]]
    #: Lock attribute -> the lock it aliases (a condition's wrapped
    #: lock, else itself).
    base: Dict[str, str]
    #: Methods whose docstring declares ``(lock held)``.
    helpers: Set[str]
    #: Attribute -> the ``repro.service`` class ``__init__`` gives it.
    peers: Dict[str, str]
    path: str


class LockDisciplineRule(Rule):
    """Guarded service state is only touched with its lock held, and
    locks are only taken in the declared order.

    Each class in ``repro.service`` that creates locks declares a
    ``_GUARDED`` class table (``{"attr": "_lock"}``).  The rule walks
    every method tracking the held-lock set through
    ``with self.<lock>:`` scopes and flags:

    * a read/write of a guarded attribute without its lock held,
      including ``getattr``/``setattr``/``delattr(self, "<attr>", ...)``
      with a literal name; with a computed name, at least one of the
      class's guard locks must be held;
    * a call to a helper whose docstring declares ``(lock held)`` from
      a site that does not hold the class's locks;
    * ``Condition.wait/notify`` outside the condition's own lock;
    * a lock-owning class with no guard map at all;
    * ``with <x>.<attr>:`` where ``<x>`` is not ``self``: a service
      class takes only its own locks (a bare attribute used as a
      context manager is taken to be a lock);
    * a lock-order edge other than :attr:`LOCK_EDGE`.  A call
      ``self.<peer>.<method>(...)`` with a lock held orders this
      class's locks before the peer's, where ``__init__`` types
      ``self.<peer>`` as another ``repro.service`` class by a
      constructor call or an annotated parameter.

    A ``threading.Condition(self._lock)`` aliases its wrapped lock, so
    holding either satisfies guards on the other.  Nested functions
    and lambdas are treated as escaping callbacks (they may run on
    another thread) and are checked with an empty held set;
    ``__init__`` is exempt — the instance is not yet shared.
    """

    code = "RL008"
    name = "lock-discipline"
    description = ("guarded service state is only read/written under "
                   "its declared lock, and locks nest only in the "
                   "declared order (with-scope tracking, helper "
                   "escapes, Condition.wait/notify)")
    scope = (("repro", "service"),)

    LOCK_FACTORIES: Tuple[str, ...] = ("threading.Lock",
                                       "threading.RLock",
                                       "threading.Condition")
    WAIT_METHODS: Tuple[str, ...] = ("wait", "wait_for", "notify",
                                     "notify_all")
    #: The service tier's one lock-order edge (docs/SERVICE.md
    #: §Locking): the board appends to the WAL under its own lock.
    LOCK_EDGE: Tuple[str, str] = ("JobBoard", "WriteAheadLog")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        findings: List[Finding] = []
        imports = import_map(tree)
        local = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(
                    self._check_class(node, imports, local, path))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                findings.extend(self._foreign_locks(node.items, path))
        return findings

    # -- declarations ---------------------------------------------------
    def _lock_attrs(self, init: Optional[ast.FunctionDef],
                    imports: Dict[str, str]
                    ) -> Tuple[Set[str], Dict[str, Optional[str]]]:
        """``(lock attribute names, condition -> wrapped lock)`` from
        the constructor's ``self.<attr> = ...`` assignments."""
        locks: Set[str] = set()
        conds: Dict[str, Optional[str]] = {}
        if init is None:
            return locks, conds
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.attr for t in node.targets
                       if isinstance(t, ast.Attribute)
                       and isinstance(t.value, ast.Name)
                       and t.value.id == "self"]
            if not targets:
                continue
            for sub in ast.walk(node.value):
                if not isinstance(sub, ast.Call):
                    continue
                factory = resolve_dotted(sub.func, imports)
                if factory not in self.LOCK_FACTORIES:
                    continue
                locks.update(targets)
                if factory == "threading.Condition":
                    wrapped: Optional[str] = None
                    if sub.args:
                        wrapped = self._self_attr(sub.args[0])
                    for attr in targets:
                        conds[attr] = wrapped
                break
        return locks, conds

    @staticmethod
    def _guard_map(cls: ast.ClassDef) -> Dict[str, str]:
        """Attribute -> lock name from the ``_GUARDED`` class table."""
        guards: Dict[str, str] = {}
        for stmt in cls.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_GUARDED"
                    for t in stmt.targets):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == "_GUARDED":
                value = stmt.value
            if isinstance(value, ast.Dict):
                for key, val in zip(value.keys, value.values):
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str) \
                            and isinstance(val, ast.Constant) \
                            and isinstance(val.value, str):
                        guards[key.value] = val.value
        return guards

    @staticmethod
    def _held_helpers(cls: ast.ClassDef) -> Set[str]:
        """Methods whose docstring declares ``(lock held)``."""
        helpers: Set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # The marker may wrap lines.
                doc = " ".join(
                    (ast.get_docstring(stmt, clean=False) or "").split())
                if _HELD_MARKER in doc:
                    helpers.add(stmt.name)
        return helpers

    def _peers(self, init: Optional[ast.FunctionDef],
               imports: Dict[str, str], local: Set[str]
               ) -> Dict[str, str]:
        """Attribute -> ``repro.service`` class name, for each
        ``self.<attr>`` the constructor assigns a service-class
        instance: a constructor call, or a parameter annotated with
        the class (``Optional[...]`` included)."""
        peers: Dict[str, str] = {}
        if init is None:
            return peers
        params = {arg.arg: arg.annotation
                  for arg in init.args.args + init.args.kwonlyargs
                  if arg.annotation is not None}
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign):
                continue
            typed: Optional[str] = None
            if isinstance(node.value, ast.Call):
                typed = self._service_class(node.value.func, imports,
                                            local)
            elif isinstance(node.value, ast.Name) \
                    and node.value.id in params:
                typed = self._service_class(params[node.value.id],
                                            imports, local)
            if typed is None:
                continue
            for target in node.targets:
                attr = self._self_attr(target)
                if attr is not None:
                    peers[attr] = typed
        return peers

    @staticmethod
    def _service_class(node: ast.expr, imports: Dict[str, str],
                       local: Set[str]) -> Optional[str]:
        """The class name when ``node`` (a constructor or annotation)
        names a service class: one defined in this module, or a
        CapWords name under ``repro.service``.  ``Optional[X]``
        names ``X``."""
        if isinstance(node, ast.Subscript) \
                and (dotted_name(node.value) or "").endswith("Optional"):
            node = node.slice
        name = resolve_dotted(node, imports)
        if name is None:
            return None
        if name in local:
            return name
        owner, _, cls = name.rpartition(".")
        if (owner + ".").startswith("repro.service.") \
                and cls[:1].isupper():
            return cls
        return None

    def _foreign_locks(self, items: Sequence[ast.withitem],
                       path: str) -> List[Finding]:
        """``with <x>.<lock>:`` where ``<x>`` is not ``self``."""
        findings: List[Finding] = []
        for item in items:
            expr = item.context_expr
            if isinstance(expr, ast.Attribute) \
                    and self._self_attr(expr) is None:
                shown = dotted_name(expr) or f"<expr>.{expr.attr}"
                findings.append(Finding(
                    self.code, path, expr.lineno, expr.col_offset,
                    f"`with {shown}:` takes a lock this class does "
                    "not own",
                    "call a method of the lock's owner instead; each "
                    "service class takes only its own locks"))
        return findings

    # -- the walk -------------------------------------------------------
    def _check_class(self, cls: ast.ClassDef, imports: Dict[str, str],
                     local: Set[str], path: str) -> List[Finding]:
        init = _method(cls, "__init__")
        locks, conds = self._lock_attrs(init, imports)
        guards = self._guard_map(cls)
        if not locks and not guards:
            return []
        if locks and not guards:
            return [Finding(
                self.code, path, cls.lineno, cls.col_offset,
                f"class {cls.name} creates lock(s) "
                f"{', '.join(sorted(locks))} but declares no guard "
                "map",
                "declare a _GUARDED class table naming the state "
                "each lock protects")]
        findings: List[Finding] = []
        for guard in sorted(set(guards.values())):
            if guard not in locks:
                findings.append(Finding(
                    self.code, path, cls.lineno, cls.col_offset,
                    f"guard {guard!r} declared in {cls.name}'s guard "
                    "map is not a lock created in __init__",
                    "create the lock in the constructor or fix the "
                    "guard name"))
        # A condition aliases the lock it wraps: holding either is
        # holding both, so guards resolve through the base lock.
        facts = _ClassLocks(
            name=cls.name, guards=guards, conds=conds,
            base={name: conds.get(name) or name for name in locks},
            helpers=self._held_helpers(cls),
            peers=self._peers(init, imports, local), path=path)
        every_lock = frozenset(facts.base.values())
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)) \
                    or stmt.name in ("__init__", "__post_init__"):
                continue
            held = every_lock if stmt.name in facts.helpers \
                else frozenset()
            for child in stmt.body:
                self._scan(child, held, facts, findings)
        return findings

    def _scan(self, node: ast.AST, held: "frozenset[str]",
              facts: _ClassLocks, findings: List[Finding]) -> None:
        if isinstance(node, ast.ClassDef):
            return  # nested classes are analyzed on their own
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # Nested defs/lambdas escape as callbacks: they may run on
            # another thread, so nothing is provably held inside.
            body = node.body if isinstance(node.body, list) \
                else [node.body]
            for child in body:
                self._scan(child, frozenset(), facts, findings)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = set(held)
            for item in node.items:
                self._scan(item.context_expr, held, facts, findings)
                attr = self._self_attr(item.context_expr)
                if attr is not None and attr in facts.base:
                    inner.add(facts.base[attr])
            for child in node.body:
                self._scan(child, frozenset(inner), facts, findings)
            return
        self._check_node(node, held, facts, findings)
        for child in ast.iter_child_nodes(node):
            self._scan(child, held, facts, findings)

    def _check_guard(self, attr: str, node: ast.expr,
                     held: "frozenset[str]", facts: _ClassLocks,
                     findings: List[Finding]) -> None:
        guard = facts.guards[attr]
        if facts.base.get(guard, guard) not in held:
            findings.append(Finding(
                self.code, facts.path, node.lineno, node.col_offset,
                f"self.{attr} accessed without its guard {guard!r} "
                "held",
                f"wrap the access in `with self.{guard}:` (or "
                "document the helper '(lock held)' and call it under "
                "the lock)"))

    def _check_node(self, node: ast.AST, held: "frozenset[str]",
                    facts: _ClassLocks,
                    findings: List[Finding]) -> None:
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            if node.attr in facts.guards:
                self._check_guard(node.attr, node, held, facts,
                                  findings)
            return
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id in _DYNAMIC_ACCESS \
                and len(node.args) >= 2 \
                and isinstance(node.args[0], ast.Name) \
                and node.args[0].id == "self":
            name = node.args[1]
            if isinstance(name, ast.Constant) \
                    and isinstance(name.value, str):
                if name.value in facts.guards:
                    self._check_guard(name.value, node, held, facts,
                                      findings)
            elif not held & {facts.base.get(guard, guard)
                             for guard in facts.guards.values()}:
                findings.append(Finding(
                    self.code, facts.path, node.lineno,
                    node.col_offset,
                    f"{func.id}(self, <computed name>) with none of "
                    f"{facts.name}'s guard locks held",
                    "hold the guard lock of every attribute the name "
                    "can take"))
            return
        if not isinstance(func, ast.Attribute):
            return
        if self._self_attr(func) in facts.helpers:
            missing = sorted(frozenset(facts.base.values()) - held)
            if missing:
                findings.append(Finding(
                    self.code, facts.path, node.lineno, node.col_offset,
                    f"helper self.{func.attr}() is documented "
                    f"'(lock held)' but {', '.join(missing)} is not "
                    "held at this call site",
                    f"acquire {missing[0]} before calling the "
                    "helper"))
            return
        target = self._self_attr(func.value)
        if target is None:
            return
        if func.attr in self.WAIT_METHODS and target in facts.conds:
            if facts.base[target] not in held:
                findings.append(Finding(
                    self.code, facts.path, node.lineno, node.col_offset,
                    f"self.{target}.{func.attr}() outside the "
                    "condition's lock",
                    f"Condition.{func.attr} requires its lock: wrap "
                    f"in `with self.{target}:`"))
        elif target in facts.peers and held:
            edge = (facts.name, facts.peers[target])
            if edge != self.LOCK_EDGE:
                findings.append(Finding(
                    self.code, facts.path, node.lineno, node.col_offset,
                    f"self.{target}.{func.attr}() called with "
                    f"{', '.join(sorted(held))} held adds lock edge "
                    f"{edge[0]} -> {edge[1]}; the only declared edge "
                    f"is {self.LOCK_EDGE[0]} -> {self.LOCK_EDGE[1]}",
                    "release the lock before calling into another "
                    "service object (docs/SERVICE.md §Locking)"))

    @staticmethod
    def _self_attr(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr
        return None


# ----------------------------------------------------------------------
# RL009 — thread lifecycle
# ----------------------------------------------------------------------
class ThreadLifecycleRule(Rule):
    """Every service/testing thread has a shutdown story.

    A ``threading.Thread`` created in scope must either be daemonized
    *with* a documented rationale — a ``# daemon-thread: <why>``
    comment on the constructor call or the line above — or be
    provably ``join()``-ed somewhere in the module (the stop/drain
    path).  Thread targets defined in the same module whose body is an
    unbounded ``while True:`` loop must check a stop ``Event``
    (``.wait(...)``/``.is_set()``) or contain a ``break``/``return``,
    so :meth:`stop` can actually end them.
    """

    code = "RL009"
    name = "thread-lifecycle"
    description = ("threads are daemonized with a rationale or joined "
                   "on the stop path; unbounded thread loops check a "
                   "stop Event")
    scope = (("repro", "service"), ("repro", "testing"))

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        findings: List[Finding] = []
        imports = import_map(tree)
        lines = source.splitlines()
        parents = iter_parents(tree)
        joined = self._joined_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) \
                    or resolve_dotted(node.func, imports) \
                    != "threading.Thread":
                continue
            if self._daemonized(node):
                if not self._has_rationale(node, lines):
                    findings.append(Finding(
                        self.code, path, node.lineno, node.col_offset,
                        "daemonized thread without a documented "
                        "rationale",
                        "add a `# daemon-thread: <why it may be "
                        "abandoned at exit>` comment (or drop "
                        "daemon=True and join it on the stop path)"))
            else:
                name = self._assigned_name(node, parents)
                if name is None or name not in joined:
                    findings.append(Finding(
                        self.code, path, node.lineno, node.col_offset,
                        "non-daemon thread is never join()ed in this "
                        "module",
                        "join it on the stop/drain path, or daemonize "
                        "it with a `# daemon-thread:` rationale"))
            findings.extend(self._check_target_loop(node, tree, path))
        return findings

    @staticmethod
    def _daemonized(node: ast.Call) -> bool:
        return any(kw.arg == "daemon"
                   and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True
                   for kw in node.keywords)

    @staticmethod
    def _has_rationale(node: ast.Call,
                       lines: Sequence[str]) -> bool:
        end = getattr(node, "end_lineno", node.lineno)
        if any("daemon-thread:" in line
               for line in lines[node.lineno - 1:end]):
            return True
        # Walk up through the contiguous comment block above the call
        # — the marker may open a multi-line rationale.
        index = node.lineno - 2
        while index >= 0 and lines[index].lstrip().startswith("#"):
            if "daemon-thread:" in lines[index]:
                return True
            index -= 1
        return False

    @staticmethod
    def _assigned_name(node: ast.Call,
                       parents: Dict[ast.AST, ast.AST]
                       ) -> Optional[str]:
        parent = parents.get(node)
        if isinstance(parent, ast.Assign) and parent.value is node:
            for target in parent.targets:
                name = dotted_name(target)
                if name is not None:
                    return name
        return None

    @staticmethod
    def _joined_names(tree: ast.Module) -> Set[str]:
        """Dotted names ``x``/``self.x`` with an ``x.join(...)`` call
        anywhere in the module."""
        joined: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join":
                name = dotted_name(node.func.value)
                if name is not None:
                    joined.add(name)
        return joined

    def _check_target_loop(self, node: ast.Call, tree: ast.Module,
                           path: str) -> List[Finding]:
        target_name: Optional[str] = None
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            if isinstance(kw.value, ast.Name):
                target_name = kw.value.id
            elif isinstance(kw.value, ast.Attribute):
                target_name = kw.value.attr
        if target_name is None:
            return []
        func = next(
            (sub for sub in ast.walk(tree)
             if isinstance(sub, ast.FunctionDef)
             and sub.name == target_name), None)
        if func is None:
            return []  # target lives elsewhere; out of static reach
        findings: List[Finding] = []
        for loop in ast.walk(func):
            if not isinstance(loop, ast.While) \
                    or not isinstance(loop.test, ast.Constant) \
                    or not loop.test.value:
                continue
            if not self._loop_can_stop(loop):
                findings.append(Finding(
                    self.code, path, loop.lineno, loop.col_offset,
                    f"unbounded `while True` loop in thread target "
                    f"{target_name} never checks a stop Event",
                    "poll a stop Event (`.is_set()` / `.wait(...)`) "
                    "or break/return so stop() can end the thread"))
        return findings

    @staticmethod
    def _loop_can_stop(loop: ast.While) -> bool:
        for sub in ast.walk(loop):
            if isinstance(sub, (ast.Break, ast.Return)):
                return True
            if isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr in ("wait", "is_set"):
                return True
        return False


# ----------------------------------------------------------------------
# RL010 — durability discipline
# ----------------------------------------------------------------------
class DurabilityDisciplineRule(Rule):
    """Durable service state goes through the blessed writers.

    The WAL's recovery guarantees rest on fsync'd appends and
    tmp+rename compaction writes (:mod:`repro.service.wal`);
    the cache tier has its own atomic writer.  A direct writable
    ``open()`` anywhere else in ``repro.service`` bypasses both — a
    crash mid-write becomes silent corruption instead of a detected
    torn record.  Mirrors RL007's escape-hatch design: the blessed
    module itself (``ALLOWED_SUFFIXES``) is exempt, and a deliberate
    boundary elsewhere takes a ``# reprolint: disable=RL010`` with its
    rationale.
    """

    code = "RL010"
    name = "durability-discipline"
    description = ("no direct writable open() in the service tier — "
                   "durable writes go through the WAL")
    scope = (("repro", "service"),)

    #: The blessed fsync/tmp+rename writers live here.
    ALLOWED_SUFFIXES: Tuple[str, ...] = ("repro/service/wal.py",)
    #: Mode characters that make an ``open()`` a write.
    WRITE_CHARS: Tuple[str, ...] = ("w", "a", "x", "+")

    def check(self, tree: ast.Module, source: str,
              path: str) -> List[Finding]:
        norm = path.replace("\\", "/")
        if any(norm.endswith(suffix)
               for suffix in self.ALLOWED_SUFFIXES):
            return []
        findings: List[Finding] = []
        imports = import_map(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) \
                    or resolve_dotted(node.func, imports) \
                    not in ("open", "io.open"):
                continue
            mode = self._mode(node)
            if mode is None \
                    or not any(ch in mode for ch in self.WRITE_CHARS):
                continue
            findings.append(Finding(
                self.code, path, node.lineno, node.col_offset,
                f"direct open(..., {mode!r}) in the service tier "
                "bypasses the durability discipline",
                "route the write through repro.service.wal "
                "(append/compact/seal) or "
                "the cache tier's atomic writer"))
        return findings

    @staticmethod
    def _mode(node: ast.Call) -> Optional[str]:
        mode: Optional[str] = None
        if len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            mode = node.args[1].value
        for kw in node.keywords:
            if kw.arg == "mode" \
                    and isinstance(kw.value, ast.Constant) \
                    and isinstance(kw.value.value, str):
                mode = kw.value.value
        return mode


def default_rules() -> List[Rule]:
    """Fresh instances of every rule, in code order."""
    return [
        DeterminismRule(),
        HotPathPurityRule(),
        DualLoopDriftRule(),
        ErrorDisciplineRule(),
        EnvRegistryRule(),
        TraceMaterializationRule(),
        LockDisciplineRule(),
        ThreadLifecycleRule(),
        DurabilityDisciplineRule(),
    ]
