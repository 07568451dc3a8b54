"""The paper's shape claims, checked on the committed tables.

CI's paper-gate (``python -m repro.bench --check benchmarks/results``)
proves a fresh run equals each committed ``<name>.txt`` byte for byte, so
each test here asserts one table's claims on that copy, at display
precision: who wins, by what factor, where crossovers sit — not absolute
numbers (the substrate is a simulator, not the authors' SPARCstation).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.render import _fmt, format_table, table_cells

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def number(cell: str):
    """The value a rendered cell shows (the inverse of ``_fmt``): ``int``
    for ``1,234`` and ``0``, ``float`` for ``12.3``, ``0.500`` and
    ``1.00e-05``; any other cell is returned as it is."""
    for kind in (int, float):
        try:
            return kind(cell.replace(",", ""))
        except ValueError:
            pass
    return cell


def table(name: str):
    """``{column: [value, ...]}`` of the committed ``<name>.txt``."""
    cells = table_cells((RESULTS / f"{name}.txt").read_text())
    return {col: [number(cell) for cell in values] for col, values in cells.items()}


def test_table_cells_round_trip_every_fmt_form():
    values = [
        1_234_567, 0, -42,  # ints, with commas
        0.0, 12_345.6, -2_500.0,  # float zero; >= 1000: commas, no decimals
        12.3456, 0.5, 0.01,  # >= 10: one decimal; >= 0.01: three
        1e-05, -3.4e-07,  # e-notation
        "J1", "partition (write)", "PBSM(trie,RPM)",  # strings pass through
    ]
    columns = [f"c{i}" for i in range(len(values))]
    rendered = format_table(columns, [tuple(values)])
    cells = table_cells(rendered)
    assert list(cells) == columns
    assert [cells[col][0] for col in columns] == [_fmt(value) for value in values]
    back = [number(cells[col][0]) for col in columns]
    assert format_table(columns, [tuple(back)]) == rendered
    for value, recovered in zip(values, back):
        expected = value if isinstance(value, str) else pytest.approx(value, rel=5e-3)
        assert recovered == expected


def test_table1_datasets():
    """Table 1: the dataset inventory (cardinalities and coverage)."""
    result = table("table1")
    names = result["dataset"]
    measured = dict(zip(names, result["coverage"]))
    target = dict(zip(names, result["paper_coverage"]))
    # Coverage must be calibrated to Table 1 for the base datasets.
    for name in ("LA_RR", "LA_ST", "CAL_ST"):
        assert measured[name] == pytest.approx(target[name], rel=0.05)
    # The (p) variants follow the ~p^2 law (slightly below, since the
    # global MBR grows with the rectangles).
    assert measured["LA_RR(2)"] == pytest.approx(target["LA_RR(2)"], rel=0.15)
    assert measured["LA_ST(3)"] == pytest.approx(target["LA_ST(3)"], rel=0.15)
    # CAL_ST must remain the largest dataset.
    ns = dict(zip(names, result["n_mbrs"]))
    assert ns["CAL_ST"] > ns["LA_RR"] and ns["CAL_ST"] > ns["LA_ST"]


def test_table2_joins():
    """Table 2: the experiment joins J1..J5 (result counts, selectivity)."""
    result = table("table2")
    results = dict(zip(result["join"], result["results"]))
    sel = dict(zip(result["join"], result["selectivity"]))
    # Result counts and selectivities must grow strictly J1 -> J4, as the
    # (p) scaling quadratically inflates coverage (Table 2's pattern).
    assert results["J1"] < results["J2"] < results["J3"] < results["J4"]
    assert sel["J1"] < sel["J2"] < sel["J3"] < sel["J4"]
    # J5 is the largest join by input size and produces the most results
    # of the unscaled joins.
    assert results["J5"] > results["J1"]
    # J5's selectivity is of the same order as J1's (both unscaled data).
    assert sel["J5"] < sel["J2"]


def test_table3_io_passes():
    """Table 3: minimum I/O passes per phase (partition 1/1, PBSM's
    occasional repartitioning "+" vs S3J's level-file sort "2+", join 1/1)."""
    result = table("table3")
    pbsm = dict(zip(result["phase"], result["PBSM_passes"]))
    s3j = dict(zip(result["phase"], result["S3J_passes"]))
    # Partitioning: about one pass (plus replication and positioning).
    assert 0.8 <= pbsm["partition (write)"] <= 3.0
    assert 0.8 <= s3j["partition (write)"] <= 6.0
    # Middle phase: S3J must pay its sorting passes (about 2 when the
    # level files fit in memory); PBSM's repartitioning is occasional.
    assert s3j["repartition/sort"] >= 1.5
    assert pbsm["repartition/sort"] < s3j["repartition/sort"] + 2.0
    # Join: both read the partitioned data once.
    assert 0.8 <= pbsm["join (read)"] <= 3.0
    assert 0.8 <= s3j["join (read)"] <= 6.0


def test_fig3_rpm_vs_sort():
    """Figure 3: PBSM duplicate removal — final sort (PD) vs online RPM."""
    result = table("fig3")
    io_dedup = result["PD_io_dedup"]
    pd_runtime, rp_runtime = result["PD_runtime"], result["RP_runtime"]
    # Fig 3a: the dedup overhead grows with the result set...
    assert result["results"] == sorted(result["results"])
    assert io_dedup == sorted(io_dedup)
    assert io_dedup[-1] > 3 * io_dedup[0]
    # ... and RPM's I/O equals the PD base I/O (no dedup phase at all).
    for base, rpm in zip(result["PD_io_base"], result["RP_io"]):
        assert rpm == pytest.approx(base, rel=0.01)
    # Fig 3b: RPM is faster on every join, increasingly so.
    for pd, rp in zip(pd_runtime, rp_runtime):
        assert rp < pd
    gains = [pd / rp for pd, rp in zip(pd_runtime, rp_runtime)]
    assert gains[-1] > gains[0]


def test_fig4_internal_algorithms():
    """Figure 4: in memory the trie sweep beats the list sweep on every
    join, by a gain that grows with selectivity (J5: 236 s vs 768 s)."""
    result = table("fig4")
    joins = result["join"]
    list_sec = dict(zip(joins, result["list_sec"]))
    trie_sec = dict(zip(joins, result["trie_sec"]))
    # Trie superior for all joins.
    for join in joins:
        assert trie_sec[join] < list_sec[join], join
    # The performance gain grows with the selectivity of the join
    # (J1 -> J4 have identical inputs but growing selectivity).
    gains = [list_sec[j] / trie_sec[j] for j in ("J1", "J2", "J3", "J4")]
    assert gains == sorted(gains)
    # J5: more than a factor of three (the paper: 768 / 236 ~= 3.25).
    assert list_sec["J5"] / trie_sec["J5"] > 3.0


def test_fig5_pbsm_over_memory():
    """Figure 5: PBSM(list) degrades as memory grows (longer sweep-line
    status lists); PBSM(trie) keeps improving, right for large memories."""
    result = table("fig5")
    list_sec, trie_sec = result["list_sec"], result["trie_sec"]
    # Trie is the clear winner once partitions are large (largest memory).
    assert trie_sec[-1] < list_sec[-1]
    assert list_sec[-1] / trie_sec[-1] > 1.5
    # The list variant does NOT improve with large memories: its runtime at
    # the largest budget is no better than its best mid-range point.
    mid = [s for m, s in zip(result["mem_%input"], list_sec) if 20 <= m <= 50]
    assert list_sec[-1] >= min(mid)
    # The trie variant keeps improving (or at worst plateaus) with memory.
    assert trie_sec[-1] <= trie_sec[0]
    # Partition count shrinks as memory grows (formula (1)).
    assert result["P"] == sorted(result["P"], reverse=True)


def test_fig6_repartition_share():
    """Figure 6: the share of PBSM's runtime spent repartitioning (J5)."""
    result = table("fig6")
    share = result["repart_%runtime"]
    # Substantial at the smallest memory, zero at the largest.
    assert share[0] > 10.0
    assert share[-1] == 0.0
    assert result["events"][-1] == 0
    # Diminishing influence: the average share over the small-memory half
    # exceeds the average over the large-memory half.
    half = len(share) // 2
    assert sum(share[:half]) / half > sum(share[half:]) / (len(share) - half)


def test_fig11_s3j_replication():
    """Figure 11: replication cuts S3J's CPU ~10x and its total runtime
    2.5-4x, with redundancy bounded by four copies (J5)."""
    result = table("fig11")
    for oc, rc in zip(result["orig_cpu"], result["repl_cpu"]):
        # "an order of magnitude" — require at least 5x at every budget.
        assert oc / rc > 5.0
    for ot, rt in zip(result["orig_total"], result["repl_total"]):
        # "by a factor 2.5 to 4" — require at least 2x at every budget.
        assert ot / rt > 2.0
    # The replication overhead must stay within the paper's bound.
    assert all(1.0 <= r <= 4.0 for r in result["repl_rate"])


def test_fig12_s3j_internal():
    """Figure 12: inside S3J the list sweep is about nested loops, and the
    trie sweep is strictly worse (off the paper's plot; reported here)."""
    result = table("fig12")
    nested = result["nested_loops_sec"]
    sweep = result["sweep_list_sec"]
    # Nested loops and the list sweep are within ~25% of each other at
    # every budget ("performs only slightly faster than nested loops").
    for n, s in zip(nested, sweep):
        assert abs(n - s) / n < 0.25
    # The trie sweep is the worst option inside S3J at every budget.
    for n, s, t in zip(nested, sweep, result["sweep_trie_sec"]):
        assert t > n and t > s


def test_fig13_coverage_sweep():
    """Figure 13: over LA_RR(p) x LA_ST(p), S3J closes in on PBSM(list) as
    p grows, but PBSM(trie) remains the clear winner."""
    result = table("fig13")
    s3j = result["s3j_sec"]
    pbsm_list, pbsm_trie = result["pbsm_list_sec"], result["pbsm_trie_sec"]
    # PBSM's replication rate grows with p (the redundancy pressure that
    # the figure is about).
    assert result["pbsm_repl"][-1] > result["pbsm_repl"][0]
    # Small p: S3J is substantially slower than both PBSM variants.
    assert s3j[0] > 1.3 * pbsm_list[0]
    assert s3j[0] > 1.3 * pbsm_trie[0]
    # Large p: S3J closes in on PBSM(list) — the ratio S3J/PBSM(list)
    # shrinks substantially from p=1 to p=10.
    ratio_small = s3j[0] / pbsm_list[0]
    ratio_large = s3j[-1] / pbsm_list[-1]
    assert ratio_large < 0.7 * ratio_small
    # PBSM(trie) is the clear winner at large p.
    assert pbsm_trie[-1] < pbsm_list[-1]
    assert pbsm_trie[-1] < s3j[-1]


def test_fig14_comparison():
    """Figure 14: S3J vs PBSM(list) vs PBSM(trie) over memory (J5): the
    best PBSM beats S3J by about 2x, PBSM(trie) wins at large memory."""
    result = table("fig14")
    s3j = result["s3j_sec"]
    pbsm_list, pbsm_trie = result["pbsm_list_sec"], result["pbsm_trie_sec"]
    # Large memory: PBSM(trie) is the most suitable method.
    assert pbsm_trie[-1] < pbsm_list[-1]
    assert pbsm_trie[-1] < s3j[-1]
    # Overall: the best PBSM outperforms S3J on average (paper: ~2x).
    best_pbsm_avg = sum(min(lst, trie) for lst, trie in zip(pbsm_list, pbsm_trie)) / len(s3j)
    s3j_avg = sum(s3j) / len(s3j)
    assert s3j_avg / best_pbsm_avg > 1.5
    # S3J improves steadily with memory (cheaper level-file sorting).
    # NOTE: the paper additionally shows S3J *winning* at small memories;
    # that crossover does not reproduce under our cost model (see the
    # Figure 14 entry in EXPERIMENTS.md for the analysis), so it is
    # deliberately not asserted here.
    assert s3j[-1] < s3j[0]


# Ablations A1-A4 and A8: the design choices DESIGN.md calls out.
def test_ablation_t_factor():
    result = table("ablation_t_factor")
    events = result["repartition_events"]
    # More safety margin -> more partitions, less repartitioning.
    assert result["P"] == sorted(result["P"])
    assert events[-1] <= events[0]


def test_ablation_sfc():
    result = table("ablation_sfc")
    cpu = dict(zip(result["curve"], result["cpu_sec"]))
    codes = dict(zip(result["curve"], result["codes"]))
    # Identical work, identical answers...
    assert codes["peano"] == codes["hilbert"]
    assert result["results"][0] == result["results"][1]
    # ...but Hilbert codes cost more CPU (the reason the paper uses Peano).
    assert cpu["hilbert"] > cpu["peano"]


def test_ablation_ntiles():
    result = table("ablation_ntiles")
    replication = result["replication"]
    # Finer grids replicate more (more tile borders to straddle).
    assert replication[-1] > replication[0]
    assert result["tiles_per_P"] == sorted(result["tiles_per_P"])


def test_ablation_s3j_strategy():
    result = table("ablation_s3j_strategy")
    replication = dict(zip(result["strategy"], result["replication"]))
    tests = dict(zip(result["strategy"], result["tests"]))
    # hybrid replicates less than full size separation...
    assert replication["original"] <= replication["hybrid"] <= replication["size"]
    # ...while removing the bulk of the original's intersection tests.
    assert tests["hybrid"] < tests["original"] / 5
    assert tests["size"] <= tests["hybrid"]


def test_ablation_max_level():
    result = table("ablation_max_level")
    tests = result["tests"]
    # Deeper hierarchies separate sizes better: fewer intersection tests.
    assert tests[-1] < tests[0]
    assert result["max_level"] == sorted(result["max_level"])


def test_parallel_speedup():
    """Ablation A7: under RPM the speedup rises with workers and flattens
    at the Amdahl bound of the sequential phases ([BKS 96, Pat 98])."""
    result = table("ablation_parallel")
    totals = result["total_sec"]
    sequential = [
        p + rp for p, rp in zip(result["partition_sec"], result["repartition_sec"])
    ]
    assert len(set(result["results"])) == 1  # worker count cannot change the answer
    # Monotone non-increasing runtime, meaningful speedup by 8 workers.
    assert totals == sorted(totals, reverse=True)
    assert result["speedup"][3] > 1.5
    # Amdahl: total never drops below the sequential phases.
    assert all(t >= s for t, s in zip(totals, sequential))
