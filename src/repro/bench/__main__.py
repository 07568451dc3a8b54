"""CLI runner: ``python -m repro.bench [experiment ...]``.

Runs the named experiments (default: all) and prints each result table;
with ``--out DIR`` the tables are additionally written to per-experiment
text files, which is how the EXPERIMENTS.md record was produced.  With
``--check DIR`` each table is compared with ``DIR/<name>.txt`` instead:
a unified diff is printed for every table that differs (or whose file is
missing) and the exit status is 1.  The ``[... completed in Ns wall]``
footer goes to stderr, so stdout is deterministic.
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time
from pathlib import Path

from repro.bench.experiments import EXPERIMENTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"experiment names (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write per-experiment .txt files into",
    )
    parser.add_argument(
        "--check",
        type=Path,
        default=None,
        metavar="DIR",
        help="compare each table with DIR/<name>.txt; exit 1 on any difference",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    failed = []
    for name in names:
        started = time.perf_counter()
        result = EXPERIMENTS[name]()
        elapsed = time.perf_counter() - started
        print(f"[{name} completed in {elapsed:.1f}s wall]", file=sys.stderr)
        text = result.to_text()
        if args.check is not None:
            if not _matches(text + "\n", args.check / f"{name}.txt"):
                failed.append(name)
            continue
        print(text + "\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n")
    if args.check is not None:
        print(f"{len(names) - len(failed)} of {len(names)} tables match {args.check}")
        if failed:
            print(f"differ: {', '.join(failed)}")
            return 1
    return 0


def _matches(text: str, committed: Path) -> bool:
    """Whether *text* equals the *committed* file; print the diff if not."""
    if not committed.exists():
        print(f"missing: {committed}")
        return False
    expected = committed.read_text()
    if text == expected:
        print(f"ok {committed.name}")
        return True
    sys.stdout.writelines(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=str(committed),
            tofile=f"{committed.stem} (this run)",
        )
    )
    return False


if __name__ == "__main__":
    sys.exit(main())
