"""The flow-sensitive repro-lint rules (RPL008–RPL011).

Where :mod:`tools.repro_lint.rules` pattern-matches single statements, the
rules here reason about *paths*: they build a CFG per function
(:mod:`tools.repro_lint.cfg`) and run forward dataflow over it
(:mod:`tools.repro_lint.dataflow`).  Each encodes a cross-path invariant the
per-line engine provably cannot express — a segment leaked on one early
return, a counter merged on one arm of a branch, an attribute read
outside the lock that every other access holds.

As everywhere in repro-lint, every rule carries its own minimal good/bad
fixture and is kept honest by ``--self-test``.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from tools.repro_lint.astutil import (
    FunctionNode,
    dotted_name,
    function_scopes,
    in_path,
    is_shm_acquisition,
    tail_name,
    walk_scope,
)
from tools.repro_lint.cfg import CFG, CFGNode, build_cfg, cfg_for_function
from tools.repro_lint.dataflow import ForwardAnalysis, run_forward
from tools.repro_lint.engine import Finding, ModuleInfo, Rule


# ----------------------------------------------------------------------
# statement anatomy shared by the flow rules
# ----------------------------------------------------------------------
def _stmt_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The expression trees *executed by this statement itself*.

    A CFG node for a compound statement stands only for its header (the
    ``if`` test, the ``for`` iterable, the ``with`` items); the body
    statements are separate nodes.  Simple statements are their whole
    subtree.  Nested function/class definitions are returned whole so a
    rule can detect closure capture, but their execution is deferred.
    """
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        out: List[ast.AST] = []
        for item in stmt.items:
            out.append(item.context_expr)
            if item.optional_vars is not None:
                out.append(item.optional_vars)
        return out
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _name_in(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(tree)
    )


def _iter_calls(exprs: Sequence[ast.AST]) -> Iterator[ast.Call]:
    for expr in exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                yield sub


def _module_function_cfg(
    module: ModuleInfo, fn: FunctionNode
) -> CFG:
    cfg = cfg_for_function(fn, module.cfg_cache)  # type: ignore[arg-type]
    return cfg


def _is_release_call(call: ast.Call, methods: Tuple[str, ...]) -> Optional[str]:
    """Name whose ``.close()``-style method this call invokes, if any."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in methods
        and isinstance(func.value, ast.Name)
    ):
        return func.value.id
    return None


def _call_passes_name(call: ast.Call, name: str) -> bool:
    """Is the bare binding *name* handed to this call as an argument?"""
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == name:
            return True
        if (
            isinstance(arg, ast.Starred)
            and isinstance(arg.value, ast.Name)
            and arg.value.id == name
        ):
            return True
    for kw in call.keywords:
        if isinstance(kw.value, ast.Name) and kw.value.id == name:
            return True
    return False


# ----------------------------------------------------------------------
# the generic "handle must be closed on every path" analysis
# (shared by RPL008 segments and RPL011 spans)
# ----------------------------------------------------------------------
class _HeldAnalysis(ForwardAnalysis[FrozenSet[str]]):
    """Powerset lattice of bindings still *held* on some incoming path."""

    def __init__(
        self,
        acquires: Dict[int, str],
        release_methods: Tuple[str, ...],
    ) -> None:
        #: id(assign-stmt) -> variable it binds a fresh handle to
        self.acquires = acquires
        self.release_methods = release_methods

    def initial(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def transfer(self, node: CFGNode, state: FrozenSet[str]) -> FrozenSet[str]:
        stmt = node.stmt
        if stmt is None:
            return state
        exprs = _stmt_exprs(stmt)
        out = set(state)
        for call in _iter_calls(exprs):
            released = _is_release_call(call, self.release_methods)
            if released is not None:
                out.discard(released)
        for var in list(out):
            if self._escapes(stmt, exprs, var):
                out.discard(var)
        acquired = self.acquires.get(id(stmt))
        if acquired is not None:
            out.add(acquired)
        return frozenset(out)

    # -- custody transfer ------------------------------------------------
    def _escapes(
        self, stmt: ast.stmt, exprs: Sequence[ast.AST], var: str
    ) -> bool:
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            return var in stmt.names
        if isinstance(stmt, ast.Delete):
            return any(_name_in(t, var) for t in stmt.targets)
        if isinstance(stmt, ast.Return):
            return stmt.value is not None and _name_in(stmt.value, var)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # A nested scope closing over the binding takes custody.
            return any(_name_in(s, var) for s in stmt.body)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    # self.seg = wrap(seg) / registry[k] = seg: the
                    # container owns it now (writes *into* the handle,
                    # like seg.buf[0] = 1, keep the target side only).
                    if _name_in(stmt.value, var):
                        return True
                if isinstance(target, ast.Name) and self._aliases(
                    stmt.value, var
                ):
                    return True
                if isinstance(target, (ast.Tuple, ast.List)) and self._aliases(
                    stmt.value, var
                ):
                    return True
        for expr in exprs:
            for sub in ast.walk(expr):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    value = sub.value
                    if value is not None and _name_in(value, var):
                        return True
                if isinstance(sub, ast.Call) and _call_passes_name(sub, var):
                    return True
                if isinstance(sub, ast.Lambda) and _name_in(sub.body, var):
                    return True
        return False

    @staticmethod
    def _aliases(value: ast.AST, var: str) -> bool:
        """Is the bare handle re-bound to another name (alias custody)?"""
        if isinstance(value, ast.Name) and value.id == var:
            return True
        if isinstance(value, (ast.Tuple, ast.List)):
            return any(
                isinstance(el, ast.Name) and el.id == var for el in value.elts
            )
        return False


# ----------------------------------------------------------------------
# RPL008 — segment custody on all paths
# ----------------------------------------------------------------------
#: Statements that evaluate nothing, so cannot raise while a handle is held.
_CANNOT_RAISE = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)


class SegmentCustodyPaths(Rule):
    """A shm segment handle must reach release or an ownership escape on
    *every* path — the ones where a statement raises included.

    A ``finally`` that closes the binding somewhere in the function is
    not enough: an early ``return`` two lines above the ``try`` skips it
    (that shape leaked pinned segments until reboot in early drafts of
    the serve registry), and so does any statement between the
    acquisition and the ``try`` that raises.  The runtime answer is the
    ``sweep_orphan_segments`` reaper (``kernels/shm.py``); this rule is
    its static twin, catching the leak before it ships.

    Tracked: ``SharedMemory(...)`` / ``*Store.create/attach(...)`` bound
    to a local name.  Custody on a path ends when the handle is closed or
    unlinked, returned/yielded, stored into an attribute/subscript,
    passed to a call, captured by a nested scope, aliased, or declared
    global.  The acquisition is flagged if the function exit is
    reachable with the handle still held, or if a statement outside any
    ``try`` can raise while it is held (the CFG gives such a statement no
    exception edge, so the rule checks it directly).  The statement that
    releases or hands off the handle is exempt for that handle.
    """

    rule_id = "RPL008"
    title = "shm segment released or ownership-escaped on every CFG path"

    fixture_bad = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def probe(flag):\n"
        "    seg = SharedMemory(create=True, size=8)\n"
        "    if flag:\n"
        "        return None\n"
        "    try:\n"
        "        seg.buf[0] = 1\n"
        "    finally:\n"
        "        seg.close()\n"
        "        seg.unlink()\n"
    )
    fixture_good = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def probe(flag):\n"
        "    seg = SharedMemory(create=True, size=8)\n"
        "    try:\n"
        "        if flag:\n"
        "            return None\n"
        "        seg.buf[0] = 1\n"
        "    finally:\n"
        "        seg.close()\n"
        "        seg.unlink()\n"
    )

    _release_methods = ("close", "unlink")

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for fn in function_scopes(module.tree):
            yield from self._check_function(module, fn)

    def _acquisition_assigns(
        self, fn: FunctionNode
    ) -> Tuple[Dict[int, str], Dict[str, ast.stmt]]:
        """Name-bound acquisitions: id(assign) -> var, var -> first assign."""
        managed: Set[int] = set()
        for node in walk_scope(fn.body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        if is_shm_acquisition(sub):
                            managed.add(id(sub))
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None:
                    for sub in ast.walk(value):
                        if is_shm_acquisition(sub):
                            managed.add(id(sub))
        acquires: Dict[int, str] = {}
        first_site: Dict[str, ast.stmt] = {}
        declared_global: Set[str] = set()
        for node in walk_scope(fn.body):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared_global.update(node.names)
        for node in walk_scope(fn.body):
            if not isinstance(node, ast.Assign):
                continue
            if len(node.targets) != 1 or not isinstance(
                node.targets[0], ast.Name
            ):
                continue
            calls = [
                sub for sub in ast.walk(node.value) if is_shm_acquisition(sub)
            ]
            if not calls or all(id(c) in managed for c in calls):
                continue
            var = node.targets[0].id
            if var in declared_global:
                continue  # worker-state pattern: the module owns it
            acquires[id(node)] = var
            first_site.setdefault(var, node)
        return acquires, first_site

    def _check_function(
        self, module: ModuleInfo, fn: FunctionNode
    ) -> Iterator[Finding]:
        acquires, first_site = self._acquisition_assigns(fn)
        if not acquires:
            return
        cfg = _module_function_cfg(module, fn)
        analysis = _HeldAnalysis(acquires, self._release_methods)
        result = run_forward(cfg, analysis)
        leaked = result.at_exit(cfg)
        raising = self._raises_while_held(fn, cfg, analysis, result.in_states)
        for var in sorted(leaked | set(raising)):
            site = first_site.get(var)
            if site is None:
                continue
            if var in leaked:
                how = f"a path through {fn.name}() reaches the exit"
            else:
                how = f"line {raising[var]} runs outside any try and can raise"
            yield self.finding(
                module,
                site,
                f"segment bound to {var!r} can leak: {how} without "
                "close()/unlink() or an ownership transfer — use a context "
                "manager, or a try that releases it on every exit, "
                "starting right after the acquisition (runtime twin: "
                "sweep_orphan_segments)",
            )

    @staticmethod
    def _raises_while_held(
        fn: FunctionNode,
        cfg: CFG,
        analysis: _HeldAnalysis,
        in_states: Dict[int, FrozenSet[str]],
    ) -> Dict[str, int]:
        """var -> first line outside any ``try`` that can raise holding it."""
        in_try = {
            id(sub)
            for node in walk_scope(fn.body)
            if isinstance(node, ast.Try)
            for sub in ast.walk(node)
        }
        out: Dict[str, int] = {}
        for node in sorted(cfg.statement_nodes(), key=lambda n: n.lineno):
            if id(node.stmt) in in_try or isinstance(node.stmt, _CANNOT_RAISE):
                continue
            held = in_states.get(node.nid, frozenset())
            # What the statement itself releases or hands off is exempt.
            for var in held & analysis.transfer(node, held):
                out.setdefault(var, node.lineno)
        return out


# ----------------------------------------------------------------------
# RPL009 — lock discipline in serve/ and planner/cache.py
# ----------------------------------------------------------------------
class _MustHoldLocks(ForwardAnalysis[FrozenSet[str]]):
    """Locks *definitely* held via explicit acquire()/release() calls."""

    def __init__(self, lock_names: FrozenSet[str]) -> None:
        self.lock_names = lock_names

    def initial(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a & b  # must-analysis: held on *all* incoming paths

    def transfer(self, node: CFGNode, state: FrozenSet[str]) -> FrozenSet[str]:
        stmt = node.stmt
        if stmt is None:
            return state
        out = set(state)
        for call in _iter_calls(_stmt_exprs(stmt)):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = dotted_name(func.value)
            if owner is None or owner not in self.lock_names:
                continue
            if func.attr == "acquire":
                out.add(owner)
            elif func.attr == "release":
                out.discard(owner)
        return frozenset(out)


class LockDiscipline(Rule):
    """Attributes that any method touches under ``self._lock`` must be
    touched under it *everywhere*, and two locks must nest in one order.

    The registry and planner cache are the only mutable state shared by
    every in-flight query of the always-on service; one unlocked read of
    ``self._datasets`` during a concurrent ``register`` is a
    time-of-check bug the load harness can only catch probabilistically.
    The rule infers the guarded set per class (an attribute is guarded
    if some access outside ``__init__`` holds a lock) and flags accesses
    that reach it with no lock held — using both ``with self._lock``
    regions and a must-hold dataflow over explicit
    ``acquire()``/``release()`` calls, so a conditional acquire on one
    branch does not count as protection.  Module-wide, nested
    acquisition order must be globally consistent (lock-order inversion
    is a deadlock, not a data race).

    Scoped to ``serve/`` and ``planner/cache.py`` inside the package —
    the engine's worker-pool internals (``pbsm/parallel.py``) have their
    own single-writer conventions that this rule's inference would
    misread.
    """

    rule_id = "RPL009"
    title = "guarded attributes locked on every access; one global lock order"

    fixture_bad = (
        "import threading\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = {}\n"
        "    def add(self, key, value):\n"
        "        with self._lock:\n"
        "            self._items[key] = value\n"
        "    def size(self):\n"
        "        return len(self._items)\n"
    )
    fixture_good = (
        "import threading\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = {}\n"
        "    def add(self, key, value):\n"
        "        with self._lock:\n"
        "            self._items[key] = value\n"
        "    def size(self):\n"
        "        with self._lock:\n"
        "            return len(self._items)\n"
    )

    def _in_scope(self, module: ModuleInfo) -> bool:
        rel = module.relpath
        if "repro/" in rel:
            return "serve/" in rel or rel.endswith("planner/cache.py")
        return True  # fixtures and scratch files

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if not self._in_scope(module):
            return
        order_pairs: Dict[Tuple[str, str], ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node, order_pairs)
        for (a, b), site in sorted(
            order_pairs.items(), key=lambda kv: kv[1].lineno
        ):
            if (b, a) in order_pairs and a < b:
                other = order_pairs[(b, a)]
                first, second = sorted(
                    (site, other), key=lambda n: (n.lineno, n.col_offset)
                )
                yield self.finding(
                    module,
                    second,
                    f"lock-order inversion: {a!r} and {b!r} are nested in "
                    f"both orders in this module (see line {first.lineno}); "
                    "pick one global order or this deadlocks under load",
                )

    # -- per-class analysis ----------------------------------------------
    def _check_class(
        self,
        module: ModuleInfo,
        cls: ast.ClassDef,
        order_pairs: Dict[Tuple[str, str], ast.AST],
    ) -> Iterator[Finding]:
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = self._lock_attrs(methods)
        if not lock_attrs:
            return
        lock_names = frozenset(f"self.{attr}" for attr in lock_attrs)

        #: (attr, locked?, access-node, in-init?)
        accesses: List[Tuple[str, bool, ast.AST, bool]] = []
        for method in methods:
            in_init = method.name == "__init__"
            cfg = _module_function_cfg(module, method)
            flow = run_forward(cfg, _MustHoldLocks(lock_names))
            syntactic = self._with_lock_map(
                method.body, lock_names, order_pairs
            )
            for node in cfg.statement_nodes():
                stmt = node.stmt
                assert stmt is not None
                held = bool(syntactic.get(id(stmt))) or bool(
                    flow.in_states.get(node.nid)
                )
                for attr_node in self._self_attrs(stmt):
                    if attr_node.attr in lock_attrs:
                        continue
                    accesses.append((attr_node.attr, held, attr_node, in_init))

        guarded = {
            attr for attr, held, _, in_init in accesses if held and not in_init
        }
        for attr, held, node, in_init in accesses:
            if attr in guarded and not held and not in_init:
                yield self.finding(
                    module,
                    node,
                    f"self.{attr} is accessed under the lock elsewhere in "
                    f"{cls.name} but not here; wrap this access in the same "
                    "with-lock region (or it races with every locked writer)",
                )

    @staticmethod
    def _lock_attrs(
        methods: Sequence[FunctionNode],
    ) -> Set[str]:
        locks: Set[str] = set()
        for method in methods:
            for node in walk_scope(method.body):
                if not isinstance(node, ast.Assign):
                    continue
                if not (
                    isinstance(node.value, ast.Call)
                    and tail_name(node.value.func) in ("Lock", "RLock")
                ):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        locks.add(target.attr)
        return locks

    def _with_lock_map(
        self,
        body: Sequence[ast.stmt],
        lock_names: FrozenSet[str],
        order_pairs: Dict[Tuple[str, str], ast.AST],
    ) -> Dict[int, FrozenSet[str]]:
        """id(stmt) -> locks held via enclosing ``with`` statements."""
        held_map: Dict[int, FrozenSet[str]] = {}

        def visit(stmts: Sequence[ast.stmt], held: FrozenSet[str]) -> None:
            for stmt in stmts:
                held_map[id(stmt)] = held
                inner = held
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        name = dotted_name(item.context_expr)
                        if name is not None and name in lock_names:
                            for outer in inner:
                                if outer != name:
                                    order_pairs.setdefault(
                                        (outer, name), item.context_expr
                                    )
                            inner = inner | {name}
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue  # nested scope: not this method's region
                for field_name in ("body", "orelse", "finalbody"):
                    child = getattr(stmt, field_name, None)
                    if child:
                        visit(child, inner)
                for handler in getattr(stmt, "handlers", []) or []:
                    visit(handler.body, inner)
                for case in getattr(stmt, "cases", []) or []:
                    visit(case.body, inner)

        visit(list(body), frozenset())
        return held_map

    @staticmethod
    def _self_attrs(stmt: ast.stmt) -> Iterator[ast.Attribute]:
        for expr in _stmt_exprs(stmt):
            if isinstance(
                expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    yield sub


# ----------------------------------------------------------------------
# RPL010 — charge-once counter conservation
# ----------------------------------------------------------------------
class _MergeCountAnalysis(ForwardAnalysis[FrozenSet[Tuple[str, int]]]):
    """Possible merge counts per scratch counter: -1 unborn, 0, 1, 2(=more)."""

    def __init__(
        self,
        created: Dict[int, str],
        merges: Dict[int, List[str]],
        tracked: FrozenSet[str],
    ) -> None:
        self.created = created
        self.merges = merges
        self.tracked = tracked

    def initial(self) -> FrozenSet[Tuple[str, int]]:
        return frozenset((var, -1) for var in self.tracked)

    def join(
        self, a: FrozenSet[Tuple[str, int]], b: FrozenSet[Tuple[str, int]]
    ) -> FrozenSet[Tuple[str, int]]:
        return a | b

    def transfer(
        self, node: CFGNode, state: FrozenSet[Tuple[str, int]]
    ) -> FrozenSet[Tuple[str, int]]:
        stmt = node.stmt
        if stmt is None:
            return state
        out = state
        created = self.created.get(id(stmt))
        if created is not None:
            out = frozenset(
                pair for pair in out if pair[0] != created
            ) | {(created, 0)}
        for var in self.merges.get(id(stmt), ()):
            bumped = set()
            for name, count in out:
                if name != var:
                    bumped.add((name, count))
                elif count < 0:
                    # merging before creation is impossible at runtime
                    # (NameError); treat as one merge so correlated
                    # branches don't produce phantom verdicts.
                    bumped.add((name, 1))
                else:
                    bumped.add((name, min(count + 1, 2)))
            out = frozenset(bumped)
        return out


class ChargeOnce(Rule):
    """A scratch ``CpuCounters`` that participates in merging must merge
    exactly once on every path that created it.

    Per-task counters merge exactly once: every join task charges its
    work into its own ``CpuCounters()`` and the driver adds each task's
    counters to the join total once.  Merge a scratch twice (e.g. once
    per loop iteration with the counter hoisted out of the loop) and the
    simulator double-prices the work; skip the merge on one branch and
    the work goes missing from EXPLAIN.  Both break the byte-identity of
    reported costs.

    Deliberately *never*-merged scratch counters are exempt: the rule
    only tracks counters the function merges somewhere.
    """

    rule_id = "RPL010"
    title = "scratch CpuCounters merged exactly once per creating path"

    fixture_bad = (
        "def run(parts, total):\n"
        "    task_cpu = CpuCounters()\n"
        "    for part in parts:\n"
        "        part.sort()\n"
        "        total.add(task_cpu)\n"
    )
    fixture_good = (
        "def run(parts, total):\n"
        "    for part in parts:\n"
        "        task_cpu = CpuCounters()\n"
        "        part.sort()\n"
        "        total.add(task_cpu)\n"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for fn in function_scopes(module.tree):
            yield from self._check_function(module, fn)

    def _check_function(
        self, module: ModuleInfo, fn: FunctionNode
    ) -> Iterator[Finding]:
        created: Dict[int, str] = {}
        first_site: Dict[str, ast.stmt] = {}
        for node in walk_scope(fn.body):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and tail_name(node.value.func) == "CpuCounters"
            ):
                var = node.targets[0].id
                created[id(node)] = var
                first_site.setdefault(var, node)
        if not created:
            return
        candidate_vars = frozenset(created.values())

        merges: Dict[int, List[str]] = {}
        merge_sites: Dict[int, ast.stmt] = {}
        merged_vars: Set[str] = set()
        cfg = _module_function_cfg(module, fn)
        for node in cfg.statement_nodes():
            stmt = node.stmt
            assert stmt is not None
            for call in _iter_calls(_stmt_exprs(stmt)):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "add"
                    and len(call.args) == 1
                    and isinstance(call.args[0], ast.Name)
                ):
                    continue
                var = call.args[0].id
                if var in candidate_vars:
                    merges.setdefault(id(stmt), []).append(var)
                    merge_sites[id(stmt)] = stmt
                    merged_vars.add(var)
        if not merged_vars:
            return  # pure discard scratch counters: the sanctioned pattern

        tracked = frozenset(merged_vars)
        created = {
            key: var for key, var in created.items() if var in tracked
        }
        analysis = _MergeCountAnalysis(created, merges, tracked)
        result = run_forward(cfg, analysis)

        flagged_double: Set[str] = set()
        for node in cfg.statement_nodes():
            stmt = node.stmt
            assert stmt is not None
            state = result.in_states.get(node.nid)
            if state is None:
                continue
            for var in merges.get(id(stmt), ()):
                if var in flagged_double:
                    continue
                if any(
                    name == var and count >= 1 for name, count in state
                ):
                    flagged_double.add(var)
                    yield self.finding(
                        module,
                        stmt,
                        f"scratch counter {var!r} can merge more than once "
                        "on a path through this statement (double-charged "
                        "work); create it once per merge, e.g. inside the "
                        "loop body",
                    )
        exit_state = result.at_exit(cfg)
        for var in sorted(tracked):
            if var in flagged_double:
                continue
            if any(name == var and count == 0 for name, count in exit_state):
                site = first_site.get(var)
                if site is None:
                    continue
                yield self.finding(
                    module,
                    site,
                    f"scratch counter {var!r} is merged on some paths of "
                    f"{fn.name}() but a path exists that never merges it — "
                    "that path's work silently vanishes from the totals",
                )


# ----------------------------------------------------------------------
# RPL011 — span pairing
# ----------------------------------------------------------------------
class SpanPairing(Rule):
    """Every ``tracer.span(...)`` is a ``with`` statement, or its handle
    is explicitly exited on all paths.

    The trace↔stats reconciliation (``obs/compare.py``) treats the span
    tree as exhaustive: an entered-but-never-exited span leaves a
    dangling open interval whose children re-parent, and the phase
    shares stop adding up to the wall time.  A span object that is
    created and dropped records nothing at all — silently missing
    telemetry is worse than none, because the reconciliation then
    *passes* on a partial tree.
    """

    rule_id = "RPL011"
    title = "tracer.span() used as a with-statement or exited on all paths"

    fixture_bad = (
        "def probe(tracer, flag):\n"
        '    span = tracer.span("join")\n'
        "    span.__enter__()\n"
        "    if flag:\n"
        "        return 0\n"
        "    span.__exit__(None, None, None)\n"
        "    return 1\n"
    )
    fixture_good = (
        "def probe(tracer, flag):\n"
        '    with tracer.span("join"):\n'
        "        if flag:\n"
        "            return 0\n"
        "    return 1\n"
    )

    _exit_methods = ("__exit__", "finish", "close")

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if in_path(module.relpath, "obs/trace.py"):
            return  # the definition site builds spans by hand
        for fn in function_scopes(module.tree):
            yield from self._check_scope(
                module, fn.body, _module_function_cfg(module, fn), fn.name
            )
        yield from self._check_scope(
            module, module.tree.body, None, "<module>"
        )

    @staticmethod
    def _is_span_call(node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        if node.func.attr != "span":
            return False
        receiver = tail_name(node.func.value)
        return receiver is not None and "tracer" in receiver.lower()

    def _check_scope(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        cfg: Optional[CFG],
        scope_name: str,
    ) -> Iterator[Finding]:
        span_calls = [n for n in walk_scope(body) if self._is_span_call(n)]
        if not span_calls:
            return
        managed: Set[int] = set()
        bound: Dict[int, Tuple[str, ast.stmt]] = {}
        for node in walk_scope(body):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        if self._is_span_call(sub):
                            managed.add(id(sub))
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_span_call(node.value)
            ):
                bound[id(node.value)] = (node.targets[0].id, node)

        acquires: Dict[int, str] = {}
        first_site: Dict[str, ast.stmt] = {}
        for call in span_calls:
            if id(call) in managed:
                continue
            binding = bound.get(id(call))
            if binding is None:
                yield self.finding(
                    module,
                    call,
                    f"tracer.span(...) in {scope_name} is neither a "
                    "with-statement nor bound for an explicit __exit__; "
                    "the span never records and the trace tree lies",
                )
                continue
            var, stmt = binding
            acquires[id(stmt)] = var
            first_site.setdefault(var, stmt)
        if not acquires:
            return
        if cfg is None:
            cfg = build_cfg(body)
        analysis = _HeldAnalysis(acquires, self._exit_methods)
        result = run_forward(cfg, analysis)
        for var in sorted(result.at_exit(cfg)):
            site = first_site.get(var)
            if site is None:
                continue
            yield self.finding(
                module,
                site,
                f"span bound to {var!r} is not exited on every path of "
                f"{scope_name}; use `with tracer.span(...)` or call "
                "__exit__ before each early return",
            )


#: The flow-sensitive rules, in rule-id order (merged into ALL_RULES).
FLOW_RULES: Tuple[Rule, ...] = (
    SegmentCustodyPaths(),
    LockDiscipline(),
    ChargeOnce(),
    SpanPairing(),
)
