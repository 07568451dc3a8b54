"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.fileio import load_relation, read_csv


class TestGenerate:
    def test_generate_npy(self, tmp_path, capsys):
        out = tmp_path / "rel.npy"
        assert main(["generate", "--pattern", "uniform", "--n", "200", str(out)]) == 0
        assert len(load_relation(out)) == 200
        assert "wrote 200" in capsys.readouterr().out

    def test_generate_csv_patterns(self, tmp_path):
        for pattern in ("tiger", "manhattan", "radial", "mixed", "clustered"):
            out = tmp_path / f"{pattern}.csv"
            assert main(
                ["generate", "--pattern", pattern, "--n", "50", str(out)]
            ) == 0
            assert len(load_relation(out)) == 50

    def test_generate_deterministic_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--n", "30", "--seed", "9", str(a)])
        main(["generate", "--n", "30", "--seed", "9", str(b)])
        assert read_csv(a) == read_csv(b)


class TestInfo:
    def test_info(self, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        main(["generate", "--n", "100", str(out)])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "records:   100" in text
        assert "coverage:" in text


class TestJoin:
    def _two_relations(self, tmp_path):
        left = tmp_path / "left.npy"
        right = tmp_path / "right.csv"
        main(["generate", "--n", "400", "--seed", "1", str(left)])
        main(
            [
                "generate",
                "--n",
                "400",
                "--seed",
                "2",
                "--start-oid",
                "100000",
                str(right),
            ]
        )
        return left, right

    @pytest.mark.parametrize("method", ["pbsm", "s3j", "sssj", "shj", "rtree"])
    def test_all_methods(self, tmp_path, capsys, method):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(
            ["join", str(left), str(right), "--method", method, "--memory-mb", "0.05"]
        ) == 0
        assert "results" in capsys.readouterr().out

    def test_methods_agree_via_output_files(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        pair_files = []
        for method in ("pbsm", "s3j"):
            out = tmp_path / f"{method}.csv"
            main(
                [
                    "join",
                    str(left),
                    str(right),
                    "--method",
                    method,
                    "--memory-mb",
                    "0.05",
                    "--out",
                    str(out),
                ]
            )
            pair_files.append(set(out.read_text().splitlines()[1:]))
        assert pair_files[0] == pair_files[1]

    def test_self_join_same_path(self, tmp_path, capsys):
        left, _ = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(["join", str(left), str(left), "--memory-mb", "0.05"]) == 0
        assert "results" in capsys.readouterr().out

    def test_kwargs_forwarded(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        main(
            [
                "join",
                str(left),
                str(right),
                "--method",
                "pbsm",
                "--internal",
                "sweep_trie",
                "--dedup",
                "sort",
                "--memory-mb",
                "0.05",
            ]
        )
        assert "PBSM(sweep_trie,PD)" in capsys.readouterr().out

    def test_dedup_rpm_with_workers_runs(self, tmp_path, capsys):
        # ParallelPBSM always runs RPM: the flag is accepted, not forwarded.
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(
            [
                "join",
                str(left),
                str(right),
                "--dedup",
                "rpm",
                "--workers",
                "2",
                "--memory-mb",
                "0.05",
            ]
        ) == 0
        assert "ParallelPBSM(sweep_numpy,W=2)" in capsys.readouterr().out

    def test_dedup_sort_with_workers_fails_fast(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(
            [
                "join",
                str(left),
                str(right),
                "--method",
                "pbsm",
                "--dedup",
                "sort",
                "--workers",
                "2",
                "--memory-mb",
                "0.05",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "--dedup sort" in err
        assert "--workers" in err
        assert "twolayer" not in err

    def test_scheduler_flag_is_gone(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["join", str(left), str(right), "--workers", "2", "--scheduler", "static"]
            )
        assert exit_info.value.code == 2  # argparse: unrecognized argument
        assert "--scheduler" in capsys.readouterr().err

    def test_self_join_relative_vs_resolved_path(self, tmp_path, capsys, monkeypatch):
        left, _ = self._two_relations(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        # ./left.npy and left.npy are the same file: still a self join.
        assert main(
            ["join", f"./{left.name}", left.name, "--memory-mb", "0.05"]
        ) == 0
        assert "results" in capsys.readouterr().out

    def test_join_auto_prints_plan(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(
            ["join", str(left), str(right), "--method", "auto", "--memory-mb", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "results" in out
        assert "JOIN PLAN" in out
        assert "chosen" in out

    def test_join_auto_ignores_fixed_knobs(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(
            [
                "join",
                str(left),
                str(right),
                "--method",
                "auto",
                "--internal",
                "sweep_trie",
                "--memory-mb",
                "0.05",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "ignored with --method auto" in captured.err
        assert "JOIN PLAN" in captured.out

    def test_join_auto_with_dedup_twolayer_exits_2(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["join", str(left), str(right), "--method", "auto"]
                + ["--dedup", "twolayer"]
            )
        assert exit_info.value.code == 2  # argparse: invalid choice
        assert "invalid choice: 'twolayer'" in capsys.readouterr().err


class TestExplain:
    def _two_relations(self, tmp_path):
        return TestJoin._two_relations(self, tmp_path)

    def test_explain_without_execution(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(["explain", str(left), str(right), "--memory-mb", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "JOIN PLAN" in out
        assert "candidates (by estimated simulated seconds):" in out
        # (no assertion on est-vs-actual: the shared DEFAULT_CACHE may
        # hold an already-executed plan for these relations)

    def test_explain_execute_verbose(self, tmp_path, capsys):
        left, right = self._two_relations(tmp_path)
        capsys.readouterr()
        assert main(
            [
                "explain",
                str(left),
                str(right),
                "--memory-mb",
                "0.05",
                "--execute",
                "--verbose",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "estimated vs. actual" in out
        assert "phase estimate" in out
