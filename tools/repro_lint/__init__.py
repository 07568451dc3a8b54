"""repro-lint: project-specific static analysis for cross-module invariants.

Run from the command line::

    python -m tools.repro_lint src benchmarks tests
    python -m tools.repro_lint --list-rules
    python -m tools.repro_lint --self-test

or import the API (what ``tests/test_lint.py`` does)::

    from tools.repro_lint import lint_source, run_lint, ALL_RULES

RPL007 is a per-statement pattern rule; RPL008–RPL011 are
flow-sensitive (CFG + forward dataflow, see :mod:`tools.repro_lint.cfg` and
:mod:`tools.repro_lint.dataflow`).  Each rule encodes an invariant a past PR
fixed by hand; see ``docs/static_analysis.md`` for the rule catalogue,
the retired rules and the checks that replaced them, and the inline
``# repro-lint: disable=RPLxxx`` suppression marker.  The package reads
sources only and imports nothing but the standard library.
"""

from __future__ import annotations

from tools.repro_lint.cfg import CFG, CFGNode, build_cfg, cfg_for_function
from tools.repro_lint.dataflow import ForwardAnalysis, run_forward
from tools.repro_lint.engine import (
    Finding,
    ModuleInfo,
    Rule,
    iter_python_files,
    lint_source,
    run_lint,
    self_test,
)
from tools.repro_lint.rules import ALL_RULES, RULES_BY_ID

__all__ = [
    "ALL_RULES",
    "CFG",
    "CFGNode",
    "Finding",
    "ForwardAnalysis",
    "ModuleInfo",
    "RULES_BY_ID",
    "Rule",
    "build_cfg",
    "cfg_for_function",
    "iter_python_files",
    "lint_source",
    "run_forward",
    "run_lint",
    "self_test",
]
