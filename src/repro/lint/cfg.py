"""Intra-procedural control-flow graphs over ``ast``.

One :class:`CFGNode` per *statement* (plus a synthetic entry and exit),
edges for everything that moves control between statements:

* branches (``if``/``elif``/``else``, ``match``),
* loops (back-edges, ``else`` clauses, ``break``/``continue``),
* ``try``/``except``/``else``/``finally`` — every statement of a try
  body gets an exception edge to each handler (or straight to the
  ``finally`` block when there is no handler), and abrupt exits
  (``return``/``raise``/``break``/``continue``) are routed *through*
  every enclosing ``finally`` before reaching their real target,
* ``with`` blocks (linear; the context manager's ``__exit__`` is not a
  statement, so custody via ``with`` is handled syntactically by rules),
* early ``return``/``raise`` edges to the exit node.

Exception edges are *labelled* (:meth:`CFG.exc_successors`): the
dataflow solver propagates a statement's **in**-state along them,
because a statement that raises did not complete — ``seg =
SharedMemory(...)`` raising means no segment was ever acquired.  Each
statement gets exception edges only to the handlers/finally of its
*innermost* enclosing ``try`` (an exception inside a nested try reaches
the outer handler only through the inner construct's own routing), and
statements inside a ``finally`` block are assumed not to raise.

The graph is deliberately an approximation: exception edges are added
only from protected statements (not from arbitrary expressions that
might raise), because the rules built on top of it reason about
*explicit* control flow — leaks on an early return, merges on one arm
of a branch — not about asynchronous exceptions.  See
``docs/static_analysis.md`` for the full contract.

Nested function definitions are opaque single statements here: their
bodies get their own CFG when the rule walks into them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

__all__ = ["CFG", "CFGNode", "build_cfg", "cfg_for_function"]


@dataclass(frozen=True)
class CFGNode:
    """One statement (or the synthetic ``entry``/``exit``) of a CFG."""

    nid: int
    #: "entry", "exit", or the lowercase ``ast`` class name ("if", "assign", ...)
    kind: str
    stmt: Optional[ast.stmt] = field(default=None, compare=False, repr=False)

    @property
    def synthetic(self) -> bool:
        return self.stmt is None

    @property
    def lineno(self) -> int:
        return self.stmt.lineno if self.stmt is not None else 0

    def describe(self) -> str:
        """Stable human/test-facing label: ``kind@line`` (or bare kind)."""
        if self.stmt is None:
            return self.kind
        return f"{self.kind}@{self.stmt.lineno}"


class CFG:
    """A statement-level control-flow graph for one function body."""

    def __init__(self) -> None:
        self.nodes: Dict[int, CFGNode] = {}
        self._succ: Dict[int, List[int]] = {}
        self._exc: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        self.entry: int = self._add_node("entry", None)
        self.exit: int = self._add_node("exit", None)

    # -- construction ---------------------------------------------------
    def _add_node(self, kind: str, stmt: Optional[ast.stmt]) -> int:
        nid = len(self.nodes)
        self.nodes[nid] = CFGNode(nid=nid, kind=kind, stmt=stmt)
        self._succ[nid] = []
        self._exc[nid] = []
        self._pred[nid] = []
        return nid

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self._succ[src]:
            self._succ[src].append(dst)
            self._pred[dst].append(src)

    def add_exc_edge(self, src: int, dst: int) -> None:
        """An edge taken only when *src* raises (carries src's in-state)."""
        if dst not in self._exc[src]:
            self._exc[src].append(dst)
            self._pred[dst].append(src)

    # -- queries --------------------------------------------------------
    def successors(self, nid: int) -> Tuple[int, ...]:
        """Normal + exceptional successors (the reachability view)."""
        return tuple(self._succ[nid]) + tuple(
            dst for dst in self._exc[nid] if dst not in self._succ[nid]
        )

    def normal_successors(self, nid: int) -> Tuple[int, ...]:
        return tuple(self._succ[nid])

    def exc_successors(self, nid: int) -> Tuple[int, ...]:
        return tuple(self._exc[nid])

    def predecessors(self, nid: int) -> Tuple[int, ...]:
        return tuple(self._pred[nid])

    def statement_nodes(self) -> Iterator[CFGNode]:
        for node in self.nodes.values():
            if node.stmt is not None:
                yield node

    def reachable(self) -> Set[int]:
        """Node ids reachable from the entry node."""
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.successors(nid))
        return seen

    def edge_labels(self, include_exc: bool = True) -> Set[Tuple[str, str]]:
        """Edges as ``(describe, describe)`` pairs — the golden-test view."""
        out: Set[Tuple[str, str]] = set()
        for src, dsts in self._succ.items():
            for dst in dsts:
                out.add((self.nodes[src].describe(), self.nodes[dst].describe()))
        if include_exc:
            for src, dsts in self._exc.items():
                for dst in dsts:
                    out.add(
                        (self.nodes[src].describe(), self.nodes[dst].describe())
                    )
        return out


class _Loop:
    """Per-loop routing state: where ``continue`` and ``break`` go."""

    def __init__(self, head: int) -> None:
        self.head = head
        #: node ids whose control falls to the statement *after* the loop
        self.break_frontier: List[int] = []


class _Finally:
    """One enclosing ``finally`` block while its ``try`` is being built."""

    def __init__(self, entry_id: int, end_frontier: List[int]) -> None:
        self.entry_id = entry_id
        self.end_frontier = end_frontier
        #: abrupt continuations that must leave through this finally:
        #: "exit", ("head", nid) for continue, ("loop", _Loop) for break,
        #: or ("fin", nid) for chaining into an outer finally.
        self.pending: List[object] = []


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.loops: List[_Loop] = []
        self.finallies: List[_Finally] = []
        #: how many loops were open when each finally was pushed — a
        #: break/continue only unwinds finallies opened *inside* its loop.
        self.finally_loop_depth: List[int] = []
        #: stack of active exception protectors while building: id(Try)
        #: during a try body, None (sentinel) during a finally block.
        self.protectors: List[Optional[int]] = []
        #: node id -> id(Try) of its innermost protecting try, if any.
        self.protected_by: Dict[int, Optional[int]] = {}

    # -- abrupt-exit routing --------------------------------------------
    def _route_abrupt(self, nid: int, kind: str) -> None:
        """Send control from an abrupt statement through enclosing finallies.

        ``kind`` is "exit" (return/raise), "break" or "continue".
        """
        if kind == "exit":
            chain = list(self.finallies)
        else:
            depth = len(self.loops)  # the loop being targeted is the innermost
            chain = [
                fin
                for fin, fdepth in zip(self.finallies, self.finally_loop_depth)
                if fdepth >= depth
            ]
        chain = list(reversed(chain))  # innermost first
        if kind == "exit":
            final: object = "exit"
        elif kind == "continue":
            final = ("head", self.loops[-1].head)
        else:
            final = ("loop", self.loops[-1])
        if not chain:
            self._resolve_target(final, [nid])
            return
        self.cfg.add_edge(nid, chain[0].entry_id)
        for i, fin in enumerate(chain):
            nxt: object
            if i + 1 < len(chain):
                nxt = ("fin", chain[i + 1].entry_id)
            else:
                nxt = final
            if nxt not in fin.pending:
                fin.pending.append(nxt)

    def _resolve_target(self, target: object, sources: Sequence[int]) -> None:
        if target == "exit":
            for src in sources:
                self.cfg.add_edge(src, self.cfg.exit)
        elif isinstance(target, tuple) and target[0] == "head":
            for src in sources:
                self.cfg.add_edge(src, target[1])
        elif isinstance(target, tuple) and target[0] == "fin":
            for src in sources:
                self.cfg.add_edge(src, target[1])
        elif isinstance(target, tuple) and target[0] == "loop":
            target[1].break_frontier.extend(sources)
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown abrupt target {target!r}")

    # -- statement dispatch ---------------------------------------------
    def build_body(
        self, stmts: Sequence[ast.stmt], frontier: List[int]
    ) -> List[int]:
        """Wire *stmts* sequentially; return the fall-through frontier."""
        for stmt in stmts:
            frontier = self.build_stmt(stmt, frontier)
        return frontier

    def _new_stmt_node(self, stmt: ast.stmt, frontier: Sequence[int]) -> int:
        nid = self.cfg._add_node(type(stmt).__name__.lower(), stmt)
        self.protected_by[nid] = self.protectors[-1] if self.protectors else None
        for src in frontier:
            self.cfg.add_edge(src, nid)
        return nid

    def build_stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        nid = self._new_stmt_node(stmt, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._route_abrupt(nid, "exit")
            return []
        if isinstance(stmt, ast.Break):
            if self.loops:
                self._route_abrupt(nid, "break")
            return []
        if isinstance(stmt, ast.Continue):
            if self.loops:
                self._route_abrupt(nid, "continue")
            return []
        return [nid]

    # -- compound statements --------------------------------------------
    def _if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        nid = self._new_stmt_node(stmt, frontier)
        out = self.build_body(stmt.body, [nid])
        if stmt.orelse:
            out = out + self.build_body(stmt.orelse, [nid])
        else:
            out = out + [nid]
        return out

    def _loop(
        self, stmt: Union[ast.While, ast.For, ast.AsyncFor], frontier: List[int]
    ) -> List[int]:
        head = self._new_stmt_node(stmt, frontier)
        loop = _Loop(head)
        self.loops.append(loop)
        body_end = self.build_body(stmt.body, [head])
        self.loops.pop()
        for src in body_end:
            self.cfg.add_edge(src, head)  # back edge
        # Does the loop ever *exhaust* (test goes false / iterator ends)?
        exhausts = True
        if isinstance(stmt, ast.While):
            test = stmt.test
            if isinstance(test, ast.Constant) and bool(test.value):
                exhausts = False  # ``while True``: only break leaves
        after: List[int] = list(loop.break_frontier)
        if exhausts:
            if stmt.orelse:
                after = after + self.build_body(stmt.orelse, [head])
            else:
                after = after + [head]
        elif stmt.orelse:
            # ``while True: ... else:`` — the else arm is unreachable.
            self.build_body(stmt.orelse, [])
        return after

    def _with(
        self, stmt: Union[ast.With, ast.AsyncWith], frontier: List[int]
    ) -> List[int]:
        nid = self._new_stmt_node(stmt, frontier)
        return self.build_body(stmt.body, [nid])

    def _match(self, stmt: ast.Match, frontier: List[int]) -> List[int]:
        nid = self._new_stmt_node(stmt, frontier)
        out: List[int] = [nid]  # no case may match
        for case in stmt.cases:
            out = out + self.build_body(case.body, [nid])
        return out

    def _try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        nid = self._new_stmt_node(stmt, frontier)
        fin: Optional[_Finally] = None
        fin_first: Optional[int] = None
        if stmt.finalbody:
            # Build the finally block detached; everything that leaves the
            # try construct — normally or abruptly — funnels through it.
            # The sentinel protector marks its statements as non-raising
            # (cleanup code failing is outside this model).
            before = len(self.cfg.nodes)
            self.protectors.append(None)
            fin_end = self.build_body(stmt.finalbody, [])
            self.protectors.pop()
            fin_first = before if len(self.cfg.nodes) > before else None
            if fin_first is None:  # pragma: no cover - empty finally is a syntax error
                fin_end = []
            fin = _Finally(fin_first if fin_first is not None else self.cfg.exit, fin_end)
            self.finallies.append(fin)
            self.finally_loop_depth.append(len(self.loops))

        body_start = len(self.cfg.nodes)
        self.protectors.append(id(stmt))
        body_end = self.build_body(stmt.body, [nid])
        self.protectors.pop()
        # Only statements whose *innermost* protector is this try raise
        # into these handlers; nested trys route their own exceptions.
        body_nodes = [
            i for i in range(body_start, len(self.cfg.nodes))
            if self.cfg.nodes[i].stmt is not None
            and self.protected_by.get(i) == id(stmt)
            and self.cfg.nodes[i].kind != "try"
        ]

        handler_ends: List[int] = []
        handler_starts: List[int] = []
        for handler in stmt.handlers:
            start = len(self.cfg.nodes)
            hend = self.build_body(handler.body, [])
            if len(self.cfg.nodes) > start:
                handler_starts.append(start)
            handler_ends.extend(hend)

        # Exception edges: a protected statement may raise into each
        # handler, and — when a finally exists — into the finally block
        # too (the unmatched-exception path, which re-raises after it).
        for body_nid in body_nodes:
            for hstart in handler_starts:
                self.cfg.add_exc_edge(body_nid, hstart)
            if fin is not None and fin_first is not None:
                self.cfg.add_exc_edge(body_nid, fin_first)
                if "exit" not in fin.pending:
                    fin.pending.append("exit")  # the exception re-raises after

        if stmt.orelse:
            body_end = self.build_body(stmt.orelse, body_end)

        normal_end = body_end + handler_ends
        if fin is None:
            return normal_end

        # Normal completion also runs the finally block.
        self.finallies.pop()
        self.finally_loop_depth.pop()
        if fin_first is not None:
            for src in normal_end:
                self.cfg.add_edge(src, fin_first)
        out = list(fin.end_frontier)
        for target in fin.pending:
            self._resolve_target(target, fin.end_frontier)
        return out


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Build the CFG of one function (or module) body."""
    builder = _Builder()
    end = builder.build_body(list(body), [builder.cfg.entry])
    for src in end:
        builder.cfg.add_edge(src, builder.cfg.exit)
    return builder.cfg


def cfg_for_function(
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    cache: Optional[Dict[int, CFG]] = None,
) -> CFG:
    """CFG of *fn*'s body, memoized in *cache* (keyed by node identity).

    Several flow rules visit the same functions; the cache (typically
    ``ModuleInfo.cfg_cache``) makes each body's graph build once per run.
    """
    if cache is None:
        return build_cfg(fn.body)
    key = id(fn)
    cfg = cache.get(key)
    if cfg is None:
        cfg = build_cfg(fn.body)
        cache[key] = cfg
    return cfg
