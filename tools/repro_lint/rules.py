"""The syntactic repro-lint rule and the rule catalogue.

Each rule is the mechanical form of a correctness fix a past PR made by
hand; ``docs/static_analysis.md`` tells the full story per rule.  Rules
carry their own minimal good/bad fixtures so the engine (and the test
suite) can prove each one fires exactly when it should.

RPL007 lives here and matches per statement; the flow-sensitive rules
RPL008–RPL011 (CFG + dataflow) live in :mod:`tools.repro_lint.flowrules`.
:data:`ALL_RULES` is both, in rule-id order.  The rules RPL001–RPL006
and RPL012 are retired; ``docs/static_analysis.md`` names the check that
replaced each one, or the code whose deletion retired it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Tuple

from tools.repro_lint.astutil import tail_name as _tail_name, walk_scope as _walk_scope
from tools.repro_lint.engine import Finding, ModuleInfo, Rule
from tools.repro_lint.flowrules import FLOW_RULES


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


#: Every shipped rule, in rule-id order.
ALL_RULES: Tuple[Rule, ...] = (AsyncBlockingCall(),) + FLOW_RULES

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
