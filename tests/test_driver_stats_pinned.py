"""Every driver's simulated accounting against a pinned recording.

The paper compares all its algorithms under one cost model: ``PT + n``
page-transfer units per request plus counted CPU operations, priced in
simulated seconds.  ``driver_stats_pinned.json`` holds, for each driver
(PBSM, S3J, SSSJ, SHJ, the R-tree join) on one small fixed input pair,
what that model charged: I/O units and pages, CPU counters and simulated
seconds by phase, the simulated totals and the result count, plus an
order-sensitive SHA-256 of the pair list.  Budgets are small enough
that PBSM repartitions and that SSSJ and the size-separated S3J sort
externally, so every phase is charged; the ``multipass`` runs take
inputs large enough that PBSM's candidate sort and S3J's level sort
merge in more than one pass, and ``shj/empty_buckets`` a budget that
leaves build buckets empty, and probe buckets empty behind full build
buckets.  A change that moves any of these numbers changed the paper's
accounting (or the drivers' pair order), not only its code.

Re-record (only the keys containing every given fragment)::

    PYTHONPATH=src python -m tests.test_driver_stats_pinned sssj/
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from repro import PBSM, S3J, SSSJ, SpatialHashJoin
from repro.core.phases import (
    PHASE_DEDUP,
    PHASE_JOIN,
    PHASE_PARTITION,
    PHASE_REPARTITION,
    PHASE_SORT,
)
from repro.io.costmodel import CostModel
from repro.rtree import RTreeJoin

from tests.conftest import random_kpes

PINNED = Path(__file__).with_name("driver_stats_pinned.json")

#: The accounting a run's stats carry.
FIELDS = (
    "io_units_by_phase",
    "io_pages_by_phase",
    "cpu_by_phase",
    "sim_io_seconds",
    "sim_cpu_seconds",
    "sim_seconds_by_phase",
    "n_results",
)

#: A budget PBSM's recursion splits under, several levels down.
DEEP = 1_500

DRIVERS = {
    "pbsm/sweep_list/rpm": lambda: PBSM(DEEP),
    "pbsm/sweep_list/sort": lambda: PBSM(DEEP, dedup="sort"),
    "pbsm/sweep_list/sort/multipass": lambda: PBSM(DEEP, dedup="sort"),
    "pbsm/sweep_numpy/rpm": lambda: PBSM(DEEP, internal="sweep_numpy"),
    "pbsm/sweep_numpy/rpm/W2/simulated": lambda: PBSM(
        DEEP, internal="sweep_numpy", workers=2, executor="simulated"
    ),
    "s3j/peano/size": lambda: S3J(4_000, curve="peano", strategy="size"),
    "s3j/peano/original": lambda: S3J(4_000, curve="peano", strategy="original"),
    "s3j/hilbert/size": lambda: S3J(4_000, curve="hilbert", strategy="size"),
    "s3j/hilbert/original": lambda: S3J(4_000, curve="hilbert", strategy="original"),
    "s3j/peano/hybrid": lambda: S3J(4_000, curve="peano", strategy="hybrid"),
    "s3j/peano/size/multipass": lambda: S3J(4_000, curve="peano", strategy="size"),
    "sssj/in_memory": lambda: SSSJ(1_000_000),
    "sssj/external": lambda: SSSJ(DEEP),
    "shj": lambda: SpatialHashJoin(4_000),
    "shj/empty_buckets": lambda: SpatialHashJoin(100),
    "rtree/build": lambda: RTreeJoin(16),
    "rtree/prebuilt": lambda: RTreeJoin(16, prebuilt=True),
}


#: Inputs other than the default pair: more candidates (PBSM) or more
#: records per level file (S3J) than two memory-sized runs hold.
INPUTS = {
    "pbsm/sweep_list/sort/multipass": {"max_edge": 0.1},
    "s3j/peano/size/multipass": {"n": 1_000},
}


def inputs(n=600, max_edge=0.06):
    return (
        random_kpes(n, 11, 1_000, max_edge=max_edge),
        random_kpes(n, 22, 10_000, max_edge=max_edge),
    )


def run(name):
    return DRIVERS[name]().run(*inputs(**INPUTS.get(name, {})))


def pairs_digest(pairs):
    """SHA-256 of the pair list, in the order the run reported it."""
    text = ";".join(f"{int(r)},{int(s)}" for r, s in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def observe(name):
    """One run's accounting, through JSON (plain floats, exact)."""
    result = run(name)
    stats = result.stats
    seen = {field: getattr(stats, field) for field in FIELDS}
    seen["pairs_sha256"] = pairs_digest(result.pairs)
    return json.loads(json.dumps(seen))


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_stats_equal_the_pinned_run(name):
    pinned = json.loads(PINNED.read_text())
    assert observe(name) == pinned[name]


def test_budgets_charge_every_phase():
    pinned = json.loads(PINNED.read_text())
    for name in ("pbsm/sweep_list/rpm", "pbsm/sweep_numpy/rpm"):
        assert pinned[name]["io_units_by_phase"][PHASE_REPARTITION] > 0
    # An external sort writes runs: more than one read and one write of
    # the level files (S3J), or any I/O at all (SSSJ).
    for name in ("s3j/peano/size", "s3j/hilbert/size"):
        units = pinned[name]["io_units_by_phase"]
        assert units[PHASE_SORT] > 2 * units[PHASE_PARTITION]
    assert pinned["sssj/external"]["io_units_by_phase"]
    assert not pinned["sssj/in_memory"]["io_units_by_phase"]


def test_the_added_runs_take_their_paths():
    # A merge pass costs 2 heap operations per record it merges: more
    # than that per record sorted means a second pass.
    result = run("pbsm/sweep_list/sort/multipass")
    candidates = result.stats.n_results + result.stats.duplicates_sorted_out
    assert result.stats.cpu_by_phase[PHASE_DEDUP]["heap_ops"] > 2 * candidates
    stats = run("s3j/peano/size/multipass").stats
    assert stats.cpu_by_phase[PHASE_SORT]["heap_ops"] > 2 * stats.records_partitioned
    # Each bucket SHJ joins is read in two requests; fewer than two per
    # bucket means it skipped some.
    stats = run("shj/empty_buckets").stats
    cost = CostModel()
    join = PHASE_JOIN
    requests = (stats.io_units_by_phase[join] - stats.io_pages_by_phase[join]) / cost.pt_ratio
    assert requests < 2 * stats.n_partitions


#: An assignment to a field the cost rule writes (``==`` excluded).
WRITES_THE_RULE = re.compile(r"\.(%s)\b(\[[^]]*\])?\s*[-+]?=(?!=)" % "|".join(FIELDS[:-1]))


def test_one_module_charges_the_cost_rule():
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    writers = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if WRITES_THE_RULE.search(path.read_text(encoding="utf-8"))
    }
    # ``Ledger.charge``, plus PBSM's ``workers > 1`` join-phase makespan.
    assert writers == {"io/disk.py", "pbsm/join.py"}


def record(*fragments):
    """Replace the entries whose key has every fragment with fresh runs."""
    entries = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for name in DRIVERS:
        if all(fragment in name for fragment in fragments):
            entries[name] = observe(name)
    PINNED.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(*sys.argv[1:])
