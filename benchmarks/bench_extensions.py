"""Bench A6 — all join classes: PBSM/S3J/SSSJ (no index), SHJ (one-side
replication), and the R-tree join (index on both, build charged or free)
on the same workload — the availability-of-index taxonomy of the paper's
related work, measured.  The table is simulated, so a fresh run must
also equal the committed one (``results/ablation_join_classes.txt``)
cell for cell.
"""

import pytest

from repro.bench.render import ExperimentResult, table_cells
from repro.bench.workloads import la_join, la_memory
from repro.pbsm import PBSM
from repro.rtree import RTreeJoin
from repro.s3j import S3J
from repro.shj import SpatialHashJoin
from repro.sssj import SSSJ

from benchmarks.conftest import RESULTS_DIR, column, record


def run_join_class_comparison() -> ExperimentResult:
    left, right = la_join("J1")
    memory = la_memory(left, right)
    rows = []
    for label, driver in (
        ("PBSM(trie,RPM)", PBSM(memory, internal="sweep_trie")),
        ("S3J(repl)", S3J(memory)),
        ("SSSJ", SSSJ(memory)),
        ("SHJ", SpatialHashJoin(memory)),
        ("RTree(build)", RTreeJoin(fanout=64, prebuilt=False)),
        ("RTree(prebuilt)", RTreeJoin(fanout=64, prebuilt=True)),
    ):
        result = driver.run(left, right)
        rows.append(
            (
                label,
                result.stats.n_results,
                round(result.stats.io_units),
                round(result.stats.sim_cpu_seconds, 2),
                round(result.stats.sim_seconds, 2),
            )
        )
    return ExperimentResult(
        exp_id="Ablation A6",
        title="All join classes on J1 (availability-of-index taxonomy)",
        columns=["method", "results", "io_units", "cpu_sec", "total_sec"],
        rows=rows,
        paper_claim=(
            "the index join is hard to beat when indices pre-exist; "
            "among no-index methods PBSM wins (Sec 1/related work)"
        ),
    )


@pytest.mark.benchmark(group="ablations")
def test_join_class_comparison(benchmark):
    committed = table_cells((RESULTS_DIR / "ablation_join_classes.txt").read_text())
    result = benchmark.pedantic(run_join_class_comparison, rounds=1, iterations=1)
    record("ablation_join_classes", result)
    assert table_cells(result.to_text()) == committed
    methods = column(result, "method")
    totals = dict(zip(methods, column(result, "total_sec")))
    results = set(column(result, "results"))
    assert len(results) == 1  # identical result sets
    # With pre-existing indices the R-tree join's I/O advantage shows.
    assert totals["RTree(prebuilt)"] <= totals["RTree(build)"]
