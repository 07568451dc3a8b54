"""Tests for the experiment harness: rendering, workloads, registry, CLI."""

from pathlib import Path

import pytest

from repro.bench import (
    EXPERIMENTS,
    EXTENDED_MEMORY_FRACTIONS,
    ExperimentResult,
    LA_MEMORY_FRACTION,
    MEMORY_FRACTIONS,
    ascii_chart,
    format_table,
    input_bytes,
    la_memory,
    memory_for_fraction,
)
from repro.bench.__main__ import main as bench_main

from tests.conftest import random_kpes


class TestFormatTable:
    def test_alignment_and_header(self):
        text = format_table(["a", "bb"], [(1, 2.5), (100, 0.001)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_number_formatting(self):
        text = format_table(["v"], [(1234567,), (0.00001,), (12.3456,)])
        assert "1,234,567" in text
        assert "1.00e-05" in text
        assert "12.3" in text


class TestExperimentResult:
    def test_to_text_sections(self):
        result = ExperimentResult(
            exp_id="X1",
            title="demo",
            columns=["c"],
            rows=[(1,)],
            notes=["a note"],
            paper_claim="a claim",
        )
        text = result.to_text()
        assert "== X1: demo ==" in text
        assert "paper: a claim" in text
        assert "note: a note" in text


class TestAsciiChart:
    def test_renders_series(self):
        chart = ascii_chart({"s": [(0, 0), (1, 1), (2, 4)]}, width=20, height=6)
        assert "o = s" in chart
        assert chart.count("o") >= 3

    def test_empty(self):
        assert ascii_chart({}) == "(no data)"

    def test_constant_series(self):
        chart = ascii_chart({"flat": [(0, 5), (1, 5)]}, width=10, height=4)
        assert "flat" in chart


class TestWorkloadHelpers:
    def test_fraction_grids_sorted_and_related(self):
        assert list(MEMORY_FRACTIONS) == sorted(MEMORY_FRACTIONS)
        assert set(MEMORY_FRACTIONS) < set(EXTENDED_MEMORY_FRACTIONS)

    def test_la_fraction_matches_paper_arithmetic(self):
        # 2.5 MB over (128,971 + 131,461) * 20 bytes ~= 50%
        assert 0.4 < LA_MEMORY_FRACTION < 0.6

    def test_memory_for_fraction(self):
        left = random_kpes(100, 1)
        right = random_kpes(50, 2)
        assert input_bytes(left, right) == 150 * 20
        assert memory_for_fraction(left, right, 0.5) == 75 * 20
        # tiny fractions are floored to a usable budget
        assert memory_for_fraction(left, right, 1e-9) >= 4 * 20

    def test_la_memory(self):
        left = random_kpes(100, 3)
        right = random_kpes(100, 4)
        assert la_memory(left, right) == memory_for_fraction(
            left, right, LA_MEMORY_FRACTION
        )


class TestRegistry:
    def test_every_paper_artifact_present(self):
        for key in (
            "table1",
            "table2",
            "table3",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
        ):
            assert key in EXPERIMENTS, key

    def test_all_entries_callable(self):
        assert all(callable(fn) for fn in EXPERIMENTS.values())


class TestBenchCli:
    def test_list(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "table1" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            bench_main(["fig99"])

    def test_runs_and_writes_output(self, tmp_path, capsys):
        assert bench_main(["table1", "--out", str(tmp_path)]) == 0
        saved = (tmp_path / "table1.txt").read_text()
        assert "Table 1" in saved
        assert "LA_RR" in capsys.readouterr().out

    def test_chart_flag(self, capsys):
        assert bench_main(["ablation_t_factor", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "x: t in" in out


# ----------------------------------------------------------------------
# the paper's numbers: committed figure tables, reproduced byte for byte
# ----------------------------------------------------------------------
RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


@pytest.mark.parametrize(
    "name",
    # Two ablations drive the tuple engine's repartitioning along the
    # ``t`` and tiles axes; the third, ``PBSM(workers=)``'s accounting.
    [
        "table2",
        "fig3",
        "fig6",
        "table3",
        "ablation_t_factor",
        "ablation_ntiles",
        "ablation_parallel",
    ],
)
def test_paper_figure_equals_the_committed_table(name):
    """Simulated costs and counters are deterministic: an engine change
    that moves a paper number shows up here, not in a by-hand diff."""
    assert EXPERIMENTS[name]().to_text() + "\n" == (RESULTS / f"{name}.txt").read_text()


class TestCheck:
    def test_passes_on_the_committed_tables(self, capsys):
        assert bench_main(["table1", "table2", "--check", str(RESULTS)]) == 0
        out, err = capsys.readouterr()
        assert "2 of 2 tables match" in out
        # The wall-time footer stays off stdout.
        assert "completed in" not in out
        assert "[table1 completed in" in err

    def test_fails_with_a_diff_on_a_doctored_copy(self, tmp_path, capsys):
        doctored = (RESULTS / "table1.txt").read_text().replace("12,897", "12,898", 1)
        (tmp_path / "table1.txt").write_text(doctored)
        assert bench_main(["table1", "table2", "--check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "-   LA_RR  12,898" in out
        assert "+   LA_RR  12,897" in out
        assert f"missing: {tmp_path / 'table2.txt'}" in out
        assert "differ: table1, table2" in out
