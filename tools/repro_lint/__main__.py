"""Command-line entry point: ``python -m tools.repro_lint <paths>``.

Exit status: 0 when clean, 1 when any finding (or unparsable file) was
reported, 2 on usage errors.  This is what the CI ``lint`` job runs and
what the test suite's self-check asserts on.  Findings print one per
line as ``path:line:col: RPLxxx message``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from tools.repro_lint.engine import run_lint, self_test
from tools.repro_lint.rules import ALL_RULES, RULES_BY_ID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description="Project-specific invariant lint (see docs/static_analysis.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src benchmarks tests)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check every rule against its own good/bad fixtures",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    if args.self_test:
        failures = self_test()
        if failures:
            for failure in failures:
                print(failure, file=sys.stderr)
            return 1
        print(f"self-test ok: {len(ALL_RULES)} rules fired and stayed silent")
        return 0

    if not args.paths:
        parser.error("no paths given (try: python -m tools.repro_lint src)")

    rules = list(ALL_RULES)
    if args.select:
        wanted: List[str] = [r.strip() for r in args.select.split(",") if r.strip()]
        unknown = [r for r in wanted if r not in RULES_BY_ID]
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(unknown)}")
        rules = [RULES_BY_ID[r] for r in wanted]

    try:
        findings = run_lint(args.paths, rules)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"{len(findings)} finding(s); suppress a line with "
            "'# repro-lint: disable=RPLxxx' only with a reviewed reason",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
