"""The syntactic repro-lint rules: invariants this repository was burned by.

Each rule is the mechanical form of a correctness fix a past PR made by
hand; ``docs/static_analysis.md`` tells the full story per rule.  Rules
carry their own minimal good/bad fixtures so the engine (and the test
suite) can prove each one fires exactly when it should.

RPL002–RPL007 live here and match per statement; the flow-sensitive
rules RPL008–RPL012 (CFG + dataflow) live in
:mod:`repro.lint.flowrules` and are merged into :data:`ALL_RULES` below.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.phases import ALL_PHASES
from repro.lint.astutil import (
    dotted_name as _dotted_name,
    in_path as _in_path,
    scopes as _scopes,
    tail_name as _tail_name,
    walk_scope as _walk_scope,
)
from repro.lint.engine import Finding, ModuleInfo, Rule
from repro.pbsm.grid import TILE_HASH_X, TILE_HASH_Y


# ----------------------------------------------------------------------
# RPL002 — phase names come from repro.core.phases
# ----------------------------------------------------------------------
class PhaseLiteral(Rule):
    """Phase-name string literals in phase positions outside core/phases.py.

    A literal ``"join"`` used as a phase key can silently drift from the
    keys every driver writes; PR 3 hoisted the constants exactly so the
    names cannot fork again.  The rule only fires in *phase contexts*
    (``*_by_phase`` subscripts and ``.get()``s, ``phase=`` keywords,
    comparisons against ``phase``, arguments bound to a parameter named
    ``phase``) so unrelated strings like a ``--dedup`` CLI choice stay
    legal.
    """

    rule_id = "RPL002"
    title = "phase names must come from repro.core.phases"

    fixture_bad = (
        "def repartition_share(stats):\n"
        '    return stats.sim_seconds_by_phase.get("repartition", 0.0)\n'
    )
    fixture_good = (
        "from repro.core.phases import PHASE_REPARTITION\n"
        "def repartition_share(stats):\n"
        "    return stats.sim_seconds_by_phase.get(PHASE_REPARTITION, 0.0)\n"
    )

    _phases: Set[str] = set(ALL_PHASES)

    def _is_phase_literal(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in self._phases
        )

    def _flag(self, module: ModuleInfo, node: ast.AST) -> Finding:
        value = node.value if isinstance(node, ast.Constant) else "?"
        return self.finding(
            module,
            node,
            f"phase name {value!r} written as a literal; import "
            f"PHASE_{str(value).upper()} from repro.core.phases",
        )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if _in_path(module.relpath, "core/phases.py"):
            return
        # Parameter lists of locally defined functions, so a call like
        # passes(res, "join") is matched against its own signature.
        local_params: Dict[str, List[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [a.arg for a in node.args.posonlyargs + node.args.args]
                local_params[node.name] = names

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Subscript):
                tail = _tail_name(node.value)
                if tail and tail.endswith("_by_phase"):
                    if self._is_phase_literal(node.slice):
                        yield self._flag(module, node.slice)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, local_params)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(module, node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    tail = _tail_name(target)
                    if tail and tail.endswith("_by_phase"):
                        if isinstance(node.value, ast.Dict):
                            for key in node.value.keys:
                                if key is not None and self._is_phase_literal(key):
                                    yield self._flag(module, key)

    def _check_call(
        self,
        module: ModuleInfo,
        node: ast.Call,
        local_params: Dict[str, List[str]],
    ) -> Iterator[Finding]:
        func = node.func
        # stats.io_units_by_phase.get("join", 0) and friends
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "setdefault", "pop")
            and node.args
        ):
            receiver = _tail_name(func.value)
            if receiver and receiver.endswith("_by_phase"):
                if self._is_phase_literal(node.args[0]):
                    yield self._flag(module, node.args[0])
        # tracer.phase("join"), timer.time("join") on a phase-ish method
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "phase"
            and node.args
            and self._is_phase_literal(node.args[0])
        ):
            yield self._flag(module, node.args[0])
        # phase="join" keywords anywhere
        for kw in node.keywords:
            if kw.arg == "phase" and self._is_phase_literal(kw.value):
                yield self._flag(module, kw.value)
        # calls to module-local functions with a parameter named "phase"
        if isinstance(func, ast.Name) and func.id in local_params:
            params = local_params[func.id]
            for index, arg in enumerate(node.args):
                if index < len(params) and params[index] == "phase":
                    if self._is_phase_literal(arg):
                        yield self._flag(module, arg)

    def _check_compare(
        self, module: ModuleInfo, node: ast.Compare
    ) -> Iterator[Finding]:
        sides = [node.left, *node.comparators]
        phase_like = any(
            (_tail_name(side) or "") == "phase"
            or (_tail_name(side) or "").endswith("_phase")
            for side in sides
        )
        if not phase_like:
            return
        for side in sides:
            if self._is_phase_literal(side):
                yield self._flag(module, side)


# ----------------------------------------------------------------------
# RPL003 — tile-hash arithmetic is defined exactly once
# ----------------------------------------------------------------------
class TileHashDrift(Rule):
    """No shadow copies or re-derivations of the tile-hash constants.

    RPM dedups correctly only if the scalar grid arithmetic
    (``pbsm/grid.py``) and its vectorized replay (``kernels/rpm.py``)
    hash bit-identically.  A re-typed multiplier, a local
    ``TILE_HASH_X = ...`` copy, or a third hand-rolled
    ``(tx*X) ^ (ty*Y)`` site can drift silently and turn duplicate
    suppression into result loss.
    """

    rule_id = "RPL003"
    title = "no re-derived tile-hash arithmetic or TILE_HASH_* shadow copies"

    #: Where the constants are defined and where the one sanctioned
    #: vectorized replay lives.
    _definition = ("pbsm/grid.py",)
    _replay_sites = ("pbsm/grid.py", "kernels/rpm.py")
    _names = ("TILE_HASH_X", "TILE_HASH_Y")
    _values = (TILE_HASH_X, TILE_HASH_Y)

    fixture_bad = (
        "TILE_HASH_X = 73856093  # shadow copy\n"
        "def partition_of(tx, ty, n):\n"
        "    return ((tx * TILE_HASH_X) ^ (ty * 19349663)) % n\n"
    )
    fixture_good = (
        "from repro.pbsm.grid import TileGrid\n"
        "def partition_of(grid, tx, ty):\n"
        "    return grid.partition_of_tile(tx, ty)\n"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        if _in_path(module.relpath, *self._definition):
            return
        replay_ok = _in_path(module.relpath, *self._replay_sites)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is int
                and node.value in self._values
            ):
                yield self.finding(
                    module,
                    node,
                    f"tile-hash multiplier {node.value} re-typed as a "
                    "literal; import TILE_HASH_X/TILE_HASH_Y from "
                    "repro.pbsm.grid",
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in self._names:
                        yield self.finding(
                            module,
                            node,
                            f"shadow copy of {target.id}; import it from "
                            "repro.pbsm.grid instead of re-declaring",
                        )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
                if not replay_ok and self._is_hash_expr(node):
                    yield self.finding(
                        module,
                        node,
                        "re-derived tile-hash arithmetic; call "
                        "TileGrid.partition_of_tile (scalar) or the "
                        "sanctioned replay in repro.kernels.rpm",
                    )

    def _is_hash_expr(self, node: ast.BinOp) -> bool:
        def mult_by_hash(side: ast.AST) -> bool:
            if not (isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)):
                return False
            for operand in (side.left, side.right):
                tail = _tail_name(operand)
                if tail in self._names:
                    return True
                if (
                    isinstance(operand, ast.Constant)
                    and type(operand.value) is int
                    and operand.value in self._values
                ):
                    return True
            return False

        return mult_by_hash(node.left) and mult_by_hash(node.right)


# ----------------------------------------------------------------------
# RPL004 — shared-memory segments are lifecycle-paired
# ----------------------------------------------------------------------
class ShmLifecycle(Rule):
    """Every created/attached shared-memory segment must be provably
    released or have its ownership explicitly transferred.

    Acceptable custody, per function scope: a ``with`` statement, a
    ``try/finally`` whose finally calls ``.close()``/``.unlink()`` on the
    binding, assignment to a declared ``global`` (pool-worker state),
    assignment to an attribute, or the binding escaping through
    ``return``/``yield`` (the caller owns it).  A segment bound to a
    local and dropped on an exception path leaks until reboot — exactly
    the crash window ``docs/architecture.md`` documents.
    """

    rule_id = "RPL004"
    title = "shared_memory create/attach paired with close/unlink"

    fixture_bad = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def probe():\n"
        "    seg = SharedMemory(create=True, size=8)\n"
        "    seg.buf[0] = 1\n"
        "    seg.close()\n"
    )
    fixture_good = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def probe():\n"
        "    seg = SharedMemory(create=True, size=8)\n"
        "    try:\n"
        "        seg.buf[0] = 1\n"
        "    finally:\n"
        "        seg.close()\n"
        "        seg.unlink()\n"
    )

    def _is_acquisition(self, node: ast.AST) -> bool:
        from repro.lint.astutil import is_shm_acquisition

        return is_shm_acquisition(node)

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for _, body in _scopes(module.tree):
            yield from self._check_scope(module, body)

    def _check_scope(
        self, module: ModuleInfo, body: Sequence[ast.stmt]
    ) -> Iterator[Finding]:
        nodes = list(_walk_scope(body))
        acquisitions = [n for n in nodes if self._is_acquisition(n)]
        if not acquisitions:
            return

        managed: Set[int] = set()
        bound: Dict[int, str] = {}
        globals_declared: Set[str] = set()
        finally_released: Set[str] = set()
        escaped: Set[str] = set()

        for node in nodes:
            if isinstance(node, ast.With) or isinstance(node, ast.AsyncWith):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        if self._is_acquisition(sub):
                            managed.add(id(sub))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                globals_declared.update(node.names)
            elif isinstance(node, ast.Try):
                for final_stmt in node.finalbody:
                    for sub in ast.walk(final_stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in ("close", "unlink")
                            and isinstance(sub.func.value, ast.Name)
                        ):
                            finally_released.add(sub.func.value.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None:
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Name):
                            escaped.add(sub.id)
                        if self._is_acquisition(sub):
                            managed.add(id(sub))  # caller owns it
            elif isinstance(node, ast.Assign):
                contains = [
                    sub
                    for sub in ast.walk(node.value)
                    if self._is_acquisition(sub)
                ]
                if not contains:
                    continue
                if len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Name
                ):
                    for sub in contains:
                        bound[id(sub)] = node.targets[0].id
                elif len(node.targets) == 1 and isinstance(
                    node.targets[0], ast.Attribute
                ):
                    # self.seg = ... — ownership moved to the instance
                    for sub in contains:
                        managed.add(id(sub))

        for node in acquisitions:
            if id(node) in managed:
                continue
            name = bound.get(id(node))
            if name is None:
                yield self.finding(
                    module,
                    node,
                    "shared-memory segment acquired without a binding; use "
                    "a context manager or bind it and release in finally",
                )
                continue
            if (
                name in globals_declared
                or name in finally_released
                or name in escaped
            ):
                continue
            yield self.finding(
                module,
                node,
                f"segment bound to {name!r} is not released on every path; "
                "use a context manager or close/unlink it in a finally "
                "block (or transfer ownership via return)",
            )


# ----------------------------------------------------------------------
# RPL005 — counter currency: counted => priced => surfaced
# ----------------------------------------------------------------------
class CounterCurrency(Rule):
    """Every ``CpuCounters`` operation counter must be priced by
    ``CostModel`` and surfaced by the stats report.

    PR 2 added ``batch_ops`` and had to wire it through
    ``CostModel.cpu_seconds``, ``cpu_seconds_from_counts`` *and* the
    report by hand; a counter missing any of the three silently
    under-prices a join in the simulator and in EXPLAIN.  The rule
    cross-references the names mechanically across modules.
    """

    rule_id = "RPL005"
    title = "CpuCounters fields priced in CostModel and surfaced in reports"

    #: Result tallies, not operation counts — never priced by design.
    _exempt = frozenset({"results_reported", "duplicates_suppressed"})

    fixture_bad = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class CpuCounters:\n"
        "    intersection_tests: int = 0\n"
        "    shiny_new_ops: int = 0\n"
        "@dataclass\n"
        "class CostModel:\n"
        "    test_op_seconds: float = 2.0e-6\n"
        "    def cpu_seconds(self, counters):\n"
        "        return counters.intersection_tests * self.test_op_seconds\n"
        "    def cpu_seconds_from_counts(self, *, intersection_tests=0.0):\n"
        "        return intersection_tests * self.test_op_seconds\n"
        "def format_stats(stats):\n"
        "    return str(stats.cpu_by_phase)\n"
    )
    fixture_good = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class CpuCounters:\n"
        "    intersection_tests: int = 0\n"
        "@dataclass\n"
        "class CostModel:\n"
        "    test_op_seconds: float = 2.0e-6\n"
        "    def cpu_seconds(self, counters):\n"
        "        return counters.intersection_tests * self.test_op_seconds\n"
        "    def cpu_seconds_from_counts(self, *, intersection_tests=0.0):\n"
        "        return intersection_tests * self.test_op_seconds\n"
        "def format_stats(stats):\n"
        "    return str(stats.cpu_by_phase)\n"
    )

    def check_project(self, modules: Sequence[ModuleInfo]) -> Iterable[Finding]:
        counters: Optional[Tuple[ModuleInfo, ast.ClassDef]] = None
        cost_model: Optional[ast.ClassDef] = None
        reporter: Optional[ast.FunctionDef] = None
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    if node.name == "CpuCounters" and counters is None:
                        counters = (module, node)
                    elif node.name == "CostModel" and cost_model is None:
                        cost_model = node
                elif (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "format_stats"
                    and reporter is None
                ):
                    reporter = node
        if counters is None or cost_model is None:
            return

        counters_module, counters_cls = counters
        fields: List[Tuple[str, ast.AnnAssign]] = []
        for stmt in counters_cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.target.id not in self._exempt:
                    fields.append((stmt.target.id, stmt))

        priced: Set[str] = set()
        estimate_params: Optional[Set[str]] = None
        for node in ast.walk(cost_model):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "counters"
            ):
                priced.add(node.attr)
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "cpu_seconds_from_counts"
            ):
                estimate_params = {
                    a.arg
                    for a in node.args.args
                    + node.args.posonlyargs
                    + node.args.kwonlyargs
                    if a.arg != "self"
                }

        surfaces: Optional[Set[str]] = None
        surfaces_generic = False
        if reporter is not None:
            surfaces = set()
            for node in ast.walk(reporter):
                if isinstance(node, ast.Attribute):
                    surfaces.add(node.attr)
                    if node.attr == "cpu_by_phase":
                        surfaces_generic = True
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ):
                    surfaces.add(node.value)

        for name, stmt in fields:
            if name not in priced:
                yield self.finding(
                    counters_module,
                    stmt,
                    f"counter field {name!r} is not priced in "
                    "CostModel.cpu_seconds; add a *_seconds constant and "
                    "charge it, or the simulator under-prices every join",
                )
            if estimate_params is not None and name not in estimate_params:
                yield self.finding(
                    counters_module,
                    stmt,
                    f"counter field {name!r} is not accepted by "
                    "CostModel.cpu_seconds_from_counts, so the planner "
                    "cannot estimate it",
                )
            if (
                surfaces is not None
                and not surfaces_generic
                and name not in surfaces
            ):
                yield self.finding(
                    counters_module,
                    stmt,
                    f"counter field {name!r} is never surfaced by "
                    "format_stats",
                )


# ----------------------------------------------------------------------
# RPL006 — no silent except Exception
# ----------------------------------------------------------------------
class SilentExcept(Rule):
    """``except Exception:`` (or bare ``except:``) must re-raise or log.

    A handler that catches everything and does neither eats real bugs:
    the shm lifecycle helpers once swallowed genuine attach/unlink
    failures this way.  Narrow the exception type, re-raise, or log.
    """

    rule_id = "RPL006"
    title = "no except Exception that swallows without re-raise or logging"

    _broad = ("Exception", "BaseException")
    _log_tails = frozenset(
        {
            "warn",
            "warning",
            "error",
            "exception",
            "critical",
            "debug",
            "info",
            "log",
            "print",
            "print_exc",
        }
    )

    fixture_bad = (
        "def attach(name):\n"
        "    try:\n"
        "        return open(name)\n"
        "    except Exception:\n"
        "        pass\n"
    )
    fixture_good = (
        "def attach(name):\n"
        "    try:\n"
        "        return open(name)\n"
        "    except (FileNotFoundError, PermissionError):\n"
        "        return None\n"
    )

    def _is_broad(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(el) for el in type_node.elts)
        return _tail_name(type_node) in self._broad

    def _handles_it(self, handler: ast.ExceptHandler) -> bool:
        for node in _walk_scope(handler.body):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                tail = _tail_name(node.func)
                if tail in self._log_tails:
                    return True
        return False

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node.type) and not self._handles_it(node):
                label = (
                    "bare except"
                    if node.type is None
                    else f"except {_tail_name(node.type)}"
                )
                yield self.finding(
                    module,
                    node,
                    f"{label} swallows without re-raise or logging; narrow "
                    "the exception type, re-raise, or log what was caught",
                )


# ----------------------------------------------------------------------
# RPL007 — async handlers never block the event loop on the engine
# ----------------------------------------------------------------------
class AsyncBlockingCall(Rule):
    """Blocking engine entry points must not be called directly from
    ``async def`` bodies.

    A spatial join takes milliseconds to minutes; called inline from a
    coroutine it freezes the whole event loop — heartbeats, metrics
    scrapes, and every other client stall behind it.  The serve
    subsystem routes all engine work through
    :func:`repro.serve.executor.run_blocking` (a thread-pool seam), and
    this rule keeps that contract mechanical: the engine's synchronous
    entry points may appear in a coroutine only as *arguments* (e.g. to
    ``run_blocking``) or inside nested ``def``/``lambda`` scopes, never
    as direct calls.
    """

    rule_id = "RPL007"
    title = "no direct blocking engine calls inside async def"

    #: The engine's synchronous entry points: each one runs partitioning
    #: and probing (or file I/O) to completion before returning.
    _blocking = frozenset(
        {
            "spatial_join",
            "plan_join",
            "profile_join",
            "load_relation",
            "save_relation",
        }
    )

    fixture_bad = (
        "from repro import spatial_join\n"
        "async def handle(left, right):\n"
        "    return spatial_join(left, right, 1 << 20)\n"
    )
    fixture_good = (
        "from repro import spatial_join\n"
        "from repro.serve.executor import run_blocking\n"
        "async def handle(left, right):\n"
        "    return await run_blocking(spatial_join, left, right, 1 << 20)\n"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for sub in _walk_scope(node.body):
                if not isinstance(sub, ast.Call):
                    continue
                tail = _tail_name(sub.func)
                if tail in self._blocking:
                    yield self.finding(
                        module,
                        sub,
                        f"blocking engine call {tail}() directly inside "
                        f"async def {node.name}; it stalls the event loop "
                        "for the whole join — await "
                        f"run_blocking({tail}, ...) instead",
                    )


from repro.lint.flowrules import FLOW_RULES  # noqa: E402  (after the classes)

#: Every shipped rule, in rule-id order.
ALL_RULES: Tuple[Rule, ...] = (
    PhaseLiteral(),
    TileHashDrift(),
    ShmLifecycle(),
    CounterCurrency(),
    SilentExcept(),
    AsyncBlockingCall(),
) + FLOW_RULES

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
