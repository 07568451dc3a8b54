"""Generic forward abstract interpretation over :mod:`tools.repro_lint.cfg` graphs.

A rule plugs three things into :func:`run_forward`:

* ``initial()`` — the abstract state at the function entry,
* ``transfer(node, state)`` — the effect of one statement,
* ``join(a, b)`` — the lattice join applied where paths merge.

The solver is a plain worklist fixpoint: states propagate along CFG
edges, joining at merge points, iterating loops until nothing changes.
States must be immutable values with structural equality (frozensets,
tuples of pairs, ...) — the solver decides convergence by ``==``.

All shipped rules use powerset lattices ("the set of facts that hold on
*some* path into this point"), so join is set union and a verdict like
"a path reaches the exit with the segment still held" is a membership
test on the exit node's in-state.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Generic, Tuple, TypeVar

from tools.repro_lint.cfg import CFG, CFGNode

__all__ = ["ForwardAnalysis", "DataflowResult", "make_analysis", "run_forward"]

S = TypeVar("S")

#: Safety valve: no shipped lattice needs anywhere near this many visits
#: per node; a transfer function that fails to converge is a rule bug and
#: surfaces as this error rather than a hung lint run.
_MAX_VISITS_PER_NODE = 256


class ForwardAnalysis(Generic[S]):
    """Base class for forward dataflow problems (override all three)."""

    def initial(self) -> S:
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: S) -> S:
        raise NotImplementedError


class DataflowResult(Generic[S]):
    """Fixpoint states: ``in_states[nid]`` / ``out_states[nid]``.

    Nodes unreachable from the entry have no entry in either map.
    """

    def __init__(self, in_states: Dict[int, S], out_states: Dict[int, S]) -> None:
        self.in_states = in_states
        self.out_states = out_states

    def at_exit(self, cfg: CFG) -> S:
        """The joined state flowing into the synthetic exit node."""
        return self.in_states[cfg.exit]


def run_forward(cfg: CFG, analysis: "ForwardAnalysis[S]") -> "DataflowResult[S]":
    """Solve *analysis* over *cfg* to a fixpoint.

    Normal edges carry a node's *out*-state; exception edges carry its
    *in*-state — a statement that raised did not complete, so its
    effects (an acquisition, a merge) must not flow into the handler.
    """
    in_states: Dict[int, S] = {cfg.entry: analysis.initial()}
    out_states: Dict[int, S] = {}
    processed: Dict[int, S] = {}
    visits: Dict[int, int] = {}
    work = deque([cfg.entry])

    def propagate(dst: int, state: S) -> None:
        if dst in in_states:
            merged = analysis.join(in_states[dst], state)
            if merged == in_states[dst]:
                return
            in_states[dst] = merged
        else:
            in_states[dst] = state
        work.append(dst)

    while work:
        nid = work.popleft()
        state = in_states[nid]
        if nid in processed and processed[nid] == state:
            continue
        visits[nid] = visits.get(nid, 0) + 1
        if visits[nid] > _MAX_VISITS_PER_NODE:
            raise RuntimeError(
                f"dataflow failed to converge at node {nid} "
                f"({cfg.nodes[nid].describe()}); non-monotone transfer?"
            )
        processed[nid] = state
        for succ in cfg.exc_successors(nid):
            propagate(succ, state)
        out = analysis.transfer(cfg.nodes[nid], state)
        out_states[nid] = out
        for succ in cfg.normal_successors(nid):
            propagate(succ, out)
    # The exit node must always carry a state, even in degenerate graphs
    # (e.g. ``while True`` bodies where no edge reaches the exit).
    if cfg.exit not in in_states:
        in_states[cfg.exit] = analysis.initial()
    return DataflowResult(in_states, out_states)


def make_analysis(
    initial: Callable[[], S],
    join: Callable[[S, S], S],
    transfer: Callable[[CFGNode, S], S],
) -> "ForwardAnalysis[S]":
    """Build an analysis from three closures (the common rule idiom)."""

    class _Closed(ForwardAnalysis[S]):
        def initial(self) -> S:
            return initial()

        def join(self, a: S, b: S) -> S:
            return join(a, b)

        def transfer(self, node: CFGNode, state: S) -> S:
            return transfer(node, state)

    return _Closed()
