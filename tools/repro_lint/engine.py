"""The repro-lint rule engine: parse, dispatch rules, filter suppressions.

This is a *project-specific* static-analysis pass: every rule encodes a
cross-module invariant this repository has already been burned by (see
``docs/static_analysis.md``).  General style is ruff's job; repro-lint
checks the things a generic linter cannot know — that a shared-memory
segment is released on every path, raising ones included, that a lock
guards an attribute everywhere it is touched, that a scratch CPU counter
merges exactly once, that a coroutine never blocks on the engine.  It
reads sources only and imports nothing outside the standard library.

Architecture
------------
* :class:`Rule` — one invariant, checked one parsed module at a time
  (:meth:`Rule.check_module`).
* :class:`ModuleInfo` — a parsed file: AST plus the per-line suppression
  table built from ``# repro-lint: disable=RPLxxx`` comments.
* :func:`run_lint` — the entry point used by ``python -m tools.repro_lint``
  and by ``tests/test_lint.py``.

Every rule ships its own good/bad fixture (:attr:`Rule.fixture_good` /
:attr:`Rule.fixture_bad`); :func:`self_test` asserts each rule fires on
its bad fixture and stays silent on the good one, which is how the test
suite keeps the rules honest.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple, Union

#: Pseudo rule id for files the engine cannot parse at all.
SYNTAX_RULE_ID = "RPL000"

#: The comment marker that suppresses findings on its line, e.g.
#: ``x = 1  # repro-lint: disable=RPL011`` or ``disable=RPL007,RPL011``.
DISABLE_MARKER = "repro-lint:"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ModuleInfo:
    """A parsed source file handed to the rules."""

    #: Display path (what findings print).
    path: str
    #: Normalised posix-style path used for location-sensitive rules
    #: (e.g. "is this file under repro/kernels/?").
    relpath: str
    tree: ast.Module
    source: str
    #: line number -> rule ids suppressed on that line ("all" wildcard).
    disabled: Dict[int, Set[str]] = field(default_factory=dict)
    #: per-function CFG memo shared by the flow rules (see lint/cfg.py);
    #: keyed by ``id(function_node)``, alive exactly as long as ``tree``.
    cfg_cache: Dict[int, object] = field(default_factory=dict, repr=False)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.disabled.get(line)
        if not rules:
            return False
        return "all" in rules or rule_id in rules


class Rule:
    """Base class: one mechanically checkable invariant."""

    #: e.g. "RPL002"; every concrete rule overrides this.
    rule_id: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Minimal snippet the rule must flag (self-test fodder).
    fixture_bad: str = ""
    #: Minimal snippet the rule must accept.
    fixture_good: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Findings for one module."""
        return ()

    # ------------------------------------------------------------------
    # helpers shared by the concrete rules
    # ------------------------------------------------------------------
    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
def _disabled_lines(source: str) -> Dict[int, Set[str]]:
    """Per-line suppression sets from ``# repro-lint: disable=...`` comments."""
    disabled: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string.lstrip("#").strip()
            if not text.startswith(DISABLE_MARKER):
                continue
            directive = text[len(DISABLE_MARKER) :].strip()
            if not directive.startswith("disable="):
                continue
            names = directive[len("disable=") :]
            rules = {name.strip() for name in names.split(",") if name.strip()}
            if rules:
                disabled.setdefault(tok.start[0], set()).update(rules)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the parse error surfaces as an RPL000 finding instead
    return disabled


#: Statement types whose extent a disable-comment spreads over.  Only
#: *simple* statements: a disable on the closing paren of a three-line
#: call should cover the whole call, but a disable on an ``if`` header
#: must not silence the entire block beneath it.
_SIMPLE_STMTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Pass,
)


def _expand_disabled(
    disabled: Dict[int, Set[str]], tree: ast.Module
) -> Dict[int, Set[str]]:
    """Spread each disable-comment over its whole statement's extent.

    Tokenize reports a comment's *physical* line, but a finding on a
    multi-line statement is reported at the statement's first line —
    so ``# repro-lint: disable=RPL008`` on the continuation line of a
    three-line ``attach(...)`` call used to suppress nothing.  For each
    commented line, find the innermost simple statement whose
    ``lineno..end_lineno`` extent contains it and apply the disable set
    to every line of that extent.  Standalone comments (no containing
    simple statement) keep the per-line behavior.
    """
    if not disabled:
        return disabled
    statements = [
        node
        for node in ast.walk(tree)
        if isinstance(node, _SIMPLE_STMTS)
        and getattr(node, "end_lineno", None) is not None
    ]
    expanded: Dict[int, Set[str]] = {
        line: set(rules) for line, rules in disabled.items()
    }
    for line, rules in disabled.items():
        containing = [
            stmt
            for stmt in statements
            if stmt.lineno <= line <= (stmt.end_lineno or stmt.lineno)
        ]
        if not containing:
            continue
        innermost = min(
            containing,
            key=lambda s: ((s.end_lineno or s.lineno) - s.lineno, -s.lineno),
        )
        for covered in range(
            innermost.lineno, (innermost.end_lineno or innermost.lineno) + 1
        ):
            expanded.setdefault(covered, set()).update(rules)
    return expanded


# ----------------------------------------------------------------------
# parsing and file discovery
# ----------------------------------------------------------------------
def parse_source(
    source: str, path: str, relpath: str = ""
) -> Tuple[Union[ModuleInfo, None], Union[Finding, None]]:
    """Parse one source blob; returns ``(module, None)`` or ``(None, finding)``."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            rule=SYNTAX_RULE_ID,
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"file does not parse: {exc.msg}",
        )
    return (
        ModuleInfo(
            path=path,
            relpath=relpath or path.replace("\\", "/"),
            tree=tree,
            source=source,
            disabled=_expand_disabled(_disabled_lines(source), tree),
        ),
        None,
    )


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Every ``.py`` file under *paths*, skipping caches and hidden dirs.

    Only the part of a path *below* the given root is filtered: a root
    reached through ``..`` or a hidden parent (``~/.work/src``) is linted.
    """
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        if not root.is_dir():
            raise FileNotFoundError(f"no such file or directory: {root}")
        for candidate in sorted(root.rglob("*.py")):
            parts = candidate.relative_to(root).parts
            if any(p == "__pycache__" or p.startswith(".") for p in parts):
                continue
            yield candidate


def _load_modules(
    paths: Sequence[Union[str, Path]]
) -> Tuple[List[ModuleInfo], List[Finding]]:
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        module, error = parse_source(
            source, str(file_path), file_path.as_posix()
        )
        if error is not None:
            findings.append(error)
        elif module is not None:
            modules.append(module)
    return modules, findings


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def _apply_rules(
    modules: Sequence[ModuleInfo], rules: Sequence[Rule]
) -> List[Finding]:
    """Every rule over every module, suppression-filtered."""
    return [
        f
        for module in modules
        for rule in rules
        for f in rule.check_module(module)
        if not module.is_suppressed(f.rule, f.line)
    ]


def _ordered(findings: List[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def run_lint(
    paths: Sequence[Union[str, Path]],
    rules: Union[Sequence[Rule], None] = None,
) -> List[Finding]:
    """Lint every Python file under *paths* with *rules* (default: all)."""
    if rules is None:
        from tools.repro_lint.rules import ALL_RULES

        rules = ALL_RULES
    modules, findings = _load_modules(paths)
    return _ordered(findings + _apply_rules(modules, rules))


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Union[Sequence[Rule], None] = None,
) -> List[Finding]:
    """Lint one in-memory source blob (the fixture/test entry point)."""
    if rules is None:
        from tools.repro_lint.rules import ALL_RULES

        rules = ALL_RULES
    module, error = parse_source(source, path)
    if error is not None:
        return [error]
    assert module is not None
    return _ordered(_apply_rules([module], rules))


def self_test(rules: Union[Sequence[Rule], None] = None) -> List[str]:
    """Check each rule against its own fixtures; returns failure messages.

    An empty return value means every rule fired on its bad fixture and
    stayed silent on its good one — run by ``--self-test`` and by
    ``tests/test_lint.py``.
    """
    if rules is None:
        from tools.repro_lint.rules import ALL_RULES

        rules = ALL_RULES
    failures: List[str] = []
    for rule in rules:
        if not rule.fixture_bad or not rule.fixture_good:
            failures.append(f"{rule.rule_id}: missing fixture")
            continue
        bad = lint_source(rule.fixture_bad, path="fixture_bad.py", rules=[rule])
        if not any(f.rule == rule.rule_id for f in bad):
            failures.append(f"{rule.rule_id}: bad fixture produced no finding")
        good = lint_source(rule.fixture_good, path="fixture_good.py", rules=[rule])
        stray = [f for f in good if f.rule == rule.rule_id]
        if stray:
            failures.append(
                f"{rule.rule_id}: good fixture flagged: {stray[0].render()}"
            )
    return failures
