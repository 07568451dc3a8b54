"""Reachability gate: every ``src/repro`` function is reached by a product
surface or named, with its reason, in ``tools/reach_allowlist.txt``.

    python -m tools.reach run RECORD -- COMMAND ...   # record COMMAND
    python -m tools.reach check RECORD ...            # exit 1 on a gap

``run`` executes COMMAND with ``tools/reach_site`` first on
``PYTHONPATH``, so every Python process under it (servers, pool workers,
scripts) starts :func:`start` from its ``sitecustomize``.  Each process
appends one line per function the first time it is called, so a worker
that ends in ``os._exit`` loses nothing.  Python 3.12+ records through
``sys.monitoring``, one callback per function and process; older
versions fall back to a global ``sys.settrace`` function that returns
``None`` (about 2.6x slower).

``check`` lists the functions defined under the package root (by
``ast``), takes the union of the records, and reports every function
that no record reached, no allowlist entry names and that is not a
dunder.  docs/static_analysis.md ("Reachability") names the surfaces.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
DEFAULT_ROOT = REPO / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reach_allowlist.txt")
SITE = Path(__file__).resolve().with_name("reach_site")


def start(record: str, root: str) -> None:
    """Append every function under *root* that this process calls to *record*."""
    base = os.path.dirname(os.path.realpath(root))
    prefix = os.path.realpath(root) + os.sep
    fd = os.open(record, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    seen: Set[Any] = set()
    where: Dict[str, Optional[str]] = {}

    def see(code: Any) -> None:
        seen.add(code)
        filename = code.co_filename
        if filename not in where:
            real = os.path.realpath(filename)
            where[filename] = os.path.relpath(real, base) if real.startswith(prefix) else None
        rel = where[filename]
        if rel is not None:
            os.write(fd, f"{rel}:{code.co_firstlineno}:{code.co_name}\n".encode())

    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        tool = monitoring.COVERAGE_ID
        monitoring.use_tool_id(tool, "reach")

        def on_start(code: Any, offset: int) -> Any:
            if code not in seen:
                see(code)
            return monitoring.DISABLE

        monitoring.register_callback(tool, monitoring.events.PY_START, on_start)
        monitoring.set_events(tool, monitoring.events.PY_START)
        return

    import threading

    def on_call(frame: Any, event: str, arg: Any) -> None:
        if frame.f_code not in seen:
            see(frame.f_code)

    sys.settrace(on_call)
    threading.settrace(on_call)


def run(record: Path, root: Path, command: List[str]) -> int:
    """Run *command* with every Python process under it recording."""
    import subprocess

    record.parent.mkdir(parents=True, exist_ok=True)
    record.touch()
    env = dict(os.environ, REACH_RECORD=str(record.resolve()), REACH_ROOT=str(root.resolve()))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SITE), env.get("PYTHONPATH")) if p)
    return subprocess.call(command, env=env)


def defined(root: Path) -> Dict[Tuple[str, int, str], str]:
    """``(file, first line, name) -> qualname`` of every function under *root*.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    import ast

    found: Dict[Tuple[str, int, str], str] = {}

    def walk(node: ast.AST, rel: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = scope + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(rel, first, child.name)] = qualname
                walk(child, rel, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, rel, scope + child.name + ".")
            else:
                walk(child, rel, scope)

    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        walk(ast.parse(path.read_text(encoding="utf-8"), str(path)), rel, "")
    return found


def read_allowlist(path: Path) -> List[Tuple[str, str]]:
    """``(target, reason)`` per entry: ``repro/x.py`` or ``repro/x.py:Qual.name``."""
    entries = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        target, _, reason = line.partition(" -- ")
        if not reason.strip():
            raise SystemExit(f"{path}:{number}: an allowlist entry needs ' -- <reason>'")
        entries.append((target.strip(), reason.strip()))
    return entries


def covers(target: str, rel: str, qualname: str) -> bool:
    file, _, name = target.partition(":")
    return file == rel and (not name or qualname == name or qualname.startswith(name + "."))


def check(records: Iterable[Path], root: Path, allowlist: Path) -> int:
    """Print the gaps and return the exit status (0 when there are none)."""
    functions = defined(root)
    reached: Set[Tuple[str, int, str]] = set()
    for record in records:
        for line in record.read_text(encoding="utf-8").splitlines():
            rel, first, name = line.rsplit(":", 2)
            reached.add((rel, int(first), name))
    entries = read_allowlist(allowlist)
    used = {target: False for target, _ in entries}
    gaps = []
    for key, qualname in sorted(functions.items()):
        rel, first, name = key
        if key in reached or (name.startswith("__") and name.endswith("__")):
            continue
        target = next((t for t, _ in entries if covers(t, rel, qualname)), None)
        if target is None:
            gaps.append(f"{root.parent / rel}:{first}: {qualname} is reached by no surface")
        else:
            used[target] = True
    stale = [f"{allowlist.name}: {t} names no unreached function" for t, u in used.items() if not u]
    for line in gaps + stale:
        print(line)
    print(
        f"reach: {len(functions)} functions, {len({k for k in reached if k in functions})} "
        f"reached, {len(gaps)} unreached and not allowlisted, {len(stale)} stale entries"
    )
    return 1 if gaps or stale else 0


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m tools.reach", description="reachability gate for src/repro")
    sub = parser.add_subparsers(dest="action", required=True)
    run_p = sub.add_parser("run", help="run a command and record what it reaches")
    run_p.add_argument("record", type=Path)
    run_p.add_argument("command", nargs=argparse.REMAINDER)
    check_p = sub.add_parser("check", help="fail on functions no record reached")
    check_p.add_argument("records", type=Path, nargs="+")
    args = parser.parse_args(argv)
    if args.action == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not command:
            parser.error("run needs a command after --")
        return run(args.record, DEFAULT_ROOT, command)
    return check(args.records, DEFAULT_ROOT, ALLOWLIST)


if __name__ == "__main__":
    sys.exit(main())
