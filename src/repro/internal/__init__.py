"""Internal (in-memory) join algorithms and their registry.

Every algorithm shares one calling convention::

    algorithm(left, right, emit, counters)

where ``left``/``right`` are sequences of KPE tuples, ``emit(r, s)`` is
called once per detected intersecting pair (``r`` from ``left``), and
``counters`` accumulates the CPU operations the cost model charges.  The
drivers (PBSM, S3J, SSSJ) plug these in by name, which is how the paper's
internal-algorithm experiments (Figures 4, 5, 12) are expressed.
"""

from typing import Callable, Dict

from repro.internal.brute import brute_force_pairs
from repro.internal.interval_trie import IntervalTrie
from repro.internal.nested_loops import nested_loops_join
from repro.internal.sweep_list import sweep_list_join
from repro.internal.sweep_tree import IntervalTree, sweep_tree_join
from repro.internal.sweep_trie import sweep_trie_join
from repro.kernels.sweep import sweep_numpy_join

#: name -> algorithm; the keys are the names used throughout benchmarks,
#: figures and EXPERIMENTS.md.  ``sweep_numpy`` is the columnar
#: forward-scan kernel.
INTERNAL_ALGORITHMS: Dict[str, Callable] = {
    "nested_loops": nested_loops_join,
    "sweep_list": sweep_list_join,
    "sweep_trie": sweep_trie_join,
    "sweep_tree": sweep_tree_join,
    "sweep_numpy": sweep_numpy_join,
}


def internal_algorithm(name: str) -> Callable:
    """Look up an internal join algorithm by registry name."""
    try:
        return INTERNAL_ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown internal algorithm {name!r}; "
            f"choose from {sorted(INTERNAL_ALGORITHMS)}"
        ) from None


__all__ = [
    "INTERNAL_ALGORITHMS",
    "IntervalTree",
    "IntervalTrie",
    "brute_force_pairs",
    "internal_algorithm",
    "nested_loops_join",
    "sweep_list_join",
    "sweep_numpy_join",
    "sweep_tree_join",
    "sweep_trie_join",
]
