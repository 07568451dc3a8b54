"""The CFG builder under repro-lint's flow rules.

Two layers: a golden suite pinning the exact edge sets for the control
shapes the flow rules depend on (try/finally routing, loop-else, nested
with, early return), and a hypothesis property over randomly generated
abrupt-free programs — every statement must be reachable from entry and
must reach exit, otherwise a dataflow verdict silently covers only part
of the function.

Edges are compared via ``CFG.edge_labels()``, which renders each node as
``kind@line`` (``entry``/``exit`` for the synthetic endpoints) — stable
across builder-internal node numbering.
"""

import ast
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from tools.repro_lint.cfg import build_cfg
from tools.repro_lint.dataflow import make_analysis, run_forward


def cfg_of(source):
    fn = ast.parse(textwrap.dedent(source)).body[0]
    assert isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(fn.body)


# ----------------------------------------------------------------------
# golden edge sets
# ----------------------------------------------------------------------
class TestGoldenShapes:
    def test_try_finally_routes_through_finally(self):
        cfg = cfg_of(
            """
            def f(x):
                a = 1
                try:
                    b = risky(x)
                finally:
                    c = 3
                return b
            """
        )
        assert cfg.edge_labels(include_exc=False) == {
            ("entry", "assign@3"),
            ("assign@3", "try@4"),
            ("try@4", "assign@5"),
            ("assign@5", "assign@7"),  # body falls into finally
            ("assign@7", "return@8"),  # normal continuation
            ("assign@7", "exit"),  # exception re-raised after finally
            ("return@8", "exit"),
        }

    def test_loop_else_runs_only_without_break(self):
        cfg = cfg_of(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                else:
                    found = False
                done = True
            """
        )
        assert cfg.edge_labels() == {
            ("entry", "for@3"),
            ("for@3", "if@4"),  # iterate
            ("for@3", "assign@7"),  # exhausted -> else
            ("if@4", "break@5"),
            ("if@4", "for@3"),  # back edge
            ("break@5", "assign@8"),  # break skips the else
            ("assign@7", "assign@8"),
            ("assign@8", "exit"),
        }

    def test_nested_with_is_linear(self):
        cfg = cfg_of(
            """
            def f(a, b):
                with a:
                    with b:
                        x = 1
                    y = 2
            """
        )
        assert cfg.edge_labels() == {
            ("entry", "with@3"),
            ("with@3", "with@4"),
            ("with@4", "assign@5"),
            ("assign@5", "assign@6"),
            ("assign@6", "exit"),
        }

    def test_early_return_has_its_own_exit_edge(self):
        cfg = cfg_of(
            """
            def f(flag):
                if flag:
                    return 1
                x = 2
                return x
            """
        )
        assert cfg.edge_labels() == {
            ("entry", "if@3"),
            ("if@3", "return@4"),
            ("if@3", "assign@5"),  # false arm falls through the header
            ("return@4", "exit"),
            ("assign@5", "return@6"),
            ("return@6", "exit"),
        }

    def test_return_inside_try_unwinds_through_finally(self):
        cfg = cfg_of(
            """
            def f(flag):
                try:
                    if flag:
                        return 1
                    x = 2
                finally:
                    y = 3
                return 0
            """
        )
        edges = cfg.edge_labels()
        # the return at line 5 must NOT reach exit directly ...
        assert ("return@5", "exit") not in edges
        # ... it detours through the finally body,
        assert ("return@5", "assign@8") in edges
        # which continues both to exit (for the return) and onward.
        assert ("assign@8", "exit") in edges
        assert ("assign@8", "return@9") in edges

    def test_while_true_without_break_never_reaches_exit(self):
        cfg = cfg_of(
            """
            def f():
                while True:
                    x = 1
            """
        )
        edges = cfg.edge_labels()
        assert ("while@3", "assign@4") in edges
        assert ("assign@4", "while@3") in edges
        assert not any(dst == "exit" for _, dst in edges)

    def test_except_handler_entered_via_exception_edge(self):
        cfg = cfg_of(
            """
            def f(x):
                try:
                    y = risky(x)
                except ValueError:
                    y = 0
                return y
            """
        )
        normal = cfg.edge_labels(include_exc=False)
        exc_only = cfg.edge_labels() - normal
        assert ("assign@4", "assign@6") in exc_only  # raise -> handler
        assert ("assign@4", "return@7") in normal  # fallthrough
        assert ("assign@6", "return@7") in normal


# ----------------------------------------------------------------------
# structural invariants on every CFG
# ----------------------------------------------------------------------
class TestInvariants:
    def assert_well_formed(self, cfg):
        reachable = cfg.reachable()
        for node in cfg.statement_nodes():
            assert node.nid in reachable, (
                f"{node.describe()} unreachable from entry"
            )
        # dataflow must visit every reachable statement: run a trivial
        # "count me" analysis and check it produced an in-state per node.
        analysis = make_analysis(
            initial=frozenset,
            join=lambda a, b: a | b,
            transfer=lambda node, state: state | {node.nid},
        )
        result = run_forward(cfg, analysis)
        for node in cfg.statement_nodes():
            if node.nid in reachable:
                assert node.nid in result.in_states

    def test_shapes_from_the_rules_are_well_formed(self):
        for source in (
            "def f():\n    pass\n",
            "def f(x):\n    try:\n        a = x\n    except OSError:\n"
            "        b = 1\n    except ValueError as exc:\n        c = 2\n"
            "    else:\n        d = 3\n    finally:\n        e = 4\n",
            "def f(xs):\n    for x in xs:\n        if x:\n            "
            "continue\n        y = x\n",
            "def f(x):\n    match x:\n        case 1:\n            a = 1\n"
            "        case _:\n            b = 2\n",
            "def f(xs):\n    while xs:\n        xs = xs[1:]\n    else:\n"
            "        done = 1\n",
        ):
            self.assert_well_formed(cfg_of(source))


# ----------------------------------------------------------------------
# hypothesis: random abrupt-free programs
# ----------------------------------------------------------------------
# The generator emits only statements that fall through (no return /
# raise / break / continue, no `while True`), so every statement both is
# reachable from entry and reaches exit.  Abrupt control flow is pinned
# by the golden suite above instead, where the expected edges can be
# written down exactly.
_assign = st.builds(lambda i: f"x{i} = {i}", st.integers(0, 9))


def _block(stmts):
    return [line for stmt in stmts for line in stmt]


def _indent(block):
    return ["    " + line for line in block]


_statement = st.recursive(
    _assign.map(lambda s: [s]),
    lambda inner: st.one_of(
        # if / if-else
        st.builds(
            lambda cond, body, orelse: (
                [f"if x{cond}:"]
                + _indent(_block(body))
                + (["else:"] + _indent(_block(orelse)) if orelse else [])
            ),
            st.integers(0, 9),
            st.lists(inner, min_size=1, max_size=2),
            st.lists(inner, min_size=0, max_size=2),
        ),
        # for over a literal
        st.builds(
            lambda var, body: (
                [f"for i{var} in (1, 2):"] + _indent(_block(body))
            ),
            st.integers(0, 9),
            st.lists(inner, min_size=1, max_size=2),
        ),
        # while with a name test (terminating shape irrelevant: CFG only)
        st.builds(
            lambda cond, body: (
                [f"while x{cond}:"] + _indent(_block(body))
            ),
            st.integers(0, 9),
            st.lists(inner, min_size=1, max_size=2),
        ),
        # try/except/finally
        st.builds(
            lambda body, handler, final: (
                ["try:"]
                + _indent(_block(body))
                + ["except ValueError:"]
                + _indent(_block(handler))
                + (["finally:"] + _indent(_block(final)) if final else [])
            ),
            st.lists(inner, min_size=1, max_size=2),
            st.lists(inner, min_size=1, max_size=2),
            st.lists(inner, min_size=0, max_size=2),
        ),
        # with
        st.builds(
            lambda body: ["with ctx():"] + _indent(_block(body)),
            st.lists(inner, min_size=1, max_size=2),
        ),
    ),
    max_leaves=12,
)

_program = st.lists(_statement, min_size=1, max_size=5).map(
    lambda stmts: "def f(ctx, x0):\n" + "\n".join(_indent(_block(stmts))) + "\n"
)


class TestHypothesis:
    @settings(max_examples=120, deadline=None)
    @given(_program)
    def test_every_statement_reachable_and_reaches_exit(self, source):
        cfg = cfg_of(source)
        reachable = cfg.reachable()
        statement_ids = {node.nid for node in cfg.statement_nodes()}

        # (1) every statement is reachable from entry
        assert statement_ids <= reachable

        # (2) every statement reaches exit: walk the reverse graph
        seen = {cfg.exit}
        frontier = [cfg.exit]
        while frontier:
            nid = frontier.pop()
            for pred in cfg.predecessors(nid):
                if pred not in seen:
                    seen.add(pred)
                    frontier.append(pred)
        assert statement_ids <= seen

        # (3) the fixpoint solver assigns an in-state to every statement
        analysis = make_analysis(
            initial=frozenset,
            join=lambda a, b: a | b,
            transfer=lambda node, state: state | {node.nid},
        )
        result = run_forward(cfg, analysis)
        assert statement_ids <= set(result.in_states)
