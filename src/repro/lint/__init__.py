"""repro-lint: project-specific static analysis for cross-module invariants.

Run from the command line::

    python -m repro.lint src benchmarks tests
    python -m repro.lint --list-rules
    python -m repro.lint --self-test

or import the API (what ``tests/test_lint.py`` does)::

    from repro.lint import lint_source, run_lint, ALL_RULES

RPL007 is a per-statement pattern rule; RPL008–RPL012 are
flow-sensitive (CFG + forward dataflow, see :mod:`repro.lint.cfg` and
:mod:`repro.lint.dataflow`).  Each rule encodes an invariant a past PR
fixed by hand; see ``docs/static_analysis.md`` for the rule catalogue,
the retired rules and the checks that replaced them, and the inline
``# repro-lint: disable=RPLxxx`` suppression marker.  The package reads
sources only and imports nothing but the standard library.
"""

from __future__ import annotations

from repro.lint.cfg import CFG, CFGNode, build_cfg, cfg_for_function
from repro.lint.dataflow import ForwardAnalysis, run_forward
from repro.lint.engine import (
    Finding,
    ModuleInfo,
    Rule,
    iter_python_files,
    lint_source,
    run_lint,
    self_test,
)
from repro.lint.rules import ALL_RULES, RULES_BY_ID

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
