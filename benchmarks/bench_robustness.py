"""Robustness benches: scale stability and workload families.

* **R1 — scale stability**: EXPERIMENTS.md claims the reproduced shapes
  are stable in `REPRO_SCALE`.  This bench runs the Figure 3 and Figure
  11 comparisons at two generated scales and asserts the orderings and
  approximate factors agree.
* **R2 — workload families**: the PBSM-vs-S³J ordering must not be an
  artifact of the TIGER-like generator; re-checked on Manhattan-grid,
  radial-city and mixed-scale data.

Both tables are simulated, so a fresh run must also equal the committed
one (``results/robustness_*.txt``) cell for cell.
"""

import pytest

from repro.bench.render import ExperimentResult, table_cells
from repro.datasets import polyline_mbrs, scale_to_coverage
from repro.datasets.patterns import manhattan_grid, mixed_scale, radial_city
from repro.pbsm import PBSM
from repro.s3j import S3J

from benchmarks.conftest import RESULTS_DIR, column, record


def _la_like(n, seed, coverage):
    return scale_to_coverage(polyline_mbrs(n, seed), coverage, min_edge=1e-5)


def run_scale_stability() -> ExperimentResult:
    rows = []
    for n in (6_000, 18_000):
        left = _la_like(n, 101, 0.22)
        right = _la_like(n, 202, 0.03)
        memory = int(2 * n * 20 * 0.5)
        pd = PBSM(memory, dedup="sort").run(left, right)
        rp = PBSM(memory, dedup="rpm").run(left, right)
        orig = S3J(memory, replicate=False).run(left, right)
        repl = S3J(memory, replicate=True).run(left, right)
        rows.append(
            (
                n,
                round(pd.stats.sim_seconds / rp.stats.sim_seconds, 3),
                round(orig.stats.sim_seconds / repl.stats.sim_seconds, 3),
                round(orig.stats.sim_cpu_seconds / repl.stats.sim_cpu_seconds, 2),
            )
        )
    return ExperimentResult(
        exp_id="Robustness R1",
        title="Key runtime ratios at two generated scales",
        columns=["n_per_side", "PD/RP", "S3Jorig/S3Jrepl", "cpu_orig/repl"],
        rows=rows,
        paper_claim="figure shapes are scale-stable (EXPERIMENTS.md setup note)",
    )


def run_workload_families() -> ExperimentResult:
    families = {
        "tiger": lambda seed, start: _la_like(8_000, seed, 0.1),
        "manhattan": lambda seed, start: manhattan_grid(8_000, seed, start_oid=start),
        "radial": lambda seed, start: radial_city(8_000, seed, start_oid=start),
        "mixed": lambda seed, start: mixed_scale(8_000, seed, start_oid=start),
    }
    rows = []
    for name, make in families.items():
        left = make(11, 0)
        right = make(22, 10**6)
        memory = int(16_000 * 20 * 0.4)
        pbsm = PBSM(memory, internal="sweep_trie").run(left, right)
        s3j = S3J(memory).run(left, right)
        assert pbsm.pair_set() == s3j.pair_set(), name
        rows.append(
            (
                name,
                pbsm.stats.n_results,
                round(pbsm.stats.sim_seconds, 2),
                round(s3j.stats.sim_seconds, 2),
                round(s3j.stats.sim_seconds / pbsm.stats.sim_seconds, 2),
            )
        )
    return ExperimentResult(
        exp_id="Robustness R2",
        title="PBSM(trie) vs S3J(repl) across workload families",
        columns=["family", "results", "pbsm_sec", "s3j_sec", "ratio"],
        rows=rows,
        paper_claim="PBSM outperforms S3J on average (~2x) across real data",
    )


@pytest.mark.benchmark(group="robustness")
def test_scale_stability(benchmark):
    committed = table_cells((RESULTS_DIR / "robustness_scale.txt").read_text())
    result = benchmark.pedantic(run_scale_stability, rounds=1, iterations=1)
    record("robustness_scale", result)
    assert table_cells(result.to_text()) == committed
    pd_rp = column(result, "PD/RP")
    s3j_ratio = column(result, "S3Jorig/S3Jrepl")
    cpu_ratio = column(result, "cpu_orig/repl")
    # Orderings hold at both scales (RPM no slower; replication faster).
    assert all(ratio >= 1.0 for ratio in pd_rp)
    assert all(ratio > 1.2 for ratio in s3j_ratio)
    assert all(ratio > 3.0 for ratio in cpu_ratio)
    # Replication's advantage grows (or at worst holds) with scale: the
    # original's boundary-victim collisions multiply with density.
    assert s3j_ratio[-1] >= s3j_ratio[0]


@pytest.mark.benchmark(group="robustness")
def test_workload_families(benchmark):
    committed = table_cells((RESULTS_DIR / "robustness_families.txt").read_text())
    result = benchmark.pedantic(run_workload_families, rounds=1, iterations=1)
    record("robustness_families", result)
    assert table_cells(result.to_text()) == committed
    ratios = column(result, "ratio")
    # PBSM(trie) wins on every family (the paper's bottom line).
    assert all(ratio > 1.0 for ratio in ratios)
