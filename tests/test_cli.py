"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
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
        # A parallel run always runs RPM: the flag is accepted.
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
        assert "PBSM(sweep_numpy,RPM,W=2)" in capsys.readouterr().out

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


def _write_bad_relation(tmp_path, case):
    """One unreadable relation file per case (``missing`` writes nothing)."""
    if case == "missing":
        return tmp_path / "missing.csv"
    if case == "truncated_rcd":
        path = tmp_path / "cut.rcd"
        main(["generate", "--n", "50", str(path)])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        return path
    path = tmp_path / f"{case}.csv"
    row = "1,0.1" if case == "two_fields" else "1,nan,0.1,0.2,0.2"
    path.write_text(f"oid,xl,yl,xh,yh\n{row}\n")
    return path


@pytest.mark.parametrize("command", ["join", "info"])
@pytest.mark.parametrize("case", ["missing", "truncated_rcd", "two_fields", "nan"])
def test_unreadable_relation_exits_2_without_traceback(tmp_path, capsys, case, command):
    bad = _write_bad_relation(tmp_path, case)
    if command == "join":
        good = tmp_path / "good.npy"
        main(["generate", "--n", "50", str(good)])
        argv = ["join", str(bad), str(good)]
    else:
        argv = ["info", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["join", "explain", "serve", "load"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e-9", "1e308"])
def test_a_bad_memory_mb_is_a_usage_error(capsys, command, value):
    """Parsed by the join protocol's ``memory_mb`` rule: exit 2, no traceback."""
    argv = {
        "join": ["join", "a.npy", "b.npy"],
        "explain": ["explain", "a.npy", "b.npy"],
        "serve": ["serve"],
        "load": ["load"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--memory-mb", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --memory-mb: must be a finite number > 0 (at least one byte)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("flag", "value"),
    [
        ("--page-size", "0"),
        ("--page-size", "1048577"),
        ("--page-size", "x"),
        ("--max-inflight", "0"),
        ("--max-queue", "-1"),
        ("--budget-seconds", "nan"),
        ("--budget-seconds", "inf"),
        ("--budget-seconds", "-1"),
    ],
)
def test_serve_refuses_a_flag_it_cannot_honour(capsys, flag, value):
    """Refused at parse time, before the server starts: exit 2, no traceback."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["serve", flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err
    assert "Traceback" not in err


def test_serve_refuses_a_bad_flag_before_pinning_a_dataset(tmp_path, capsys, own_shm_segments):
    """A bad flag exits before ``--dataset`` is loaded, so nothing is left pinned."""
    rel = tmp_path / "a.npy"
    main(["generate", "--n", "50", str(rel)])
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--dataset", f"a={rel}", "--max-inflight", "0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-inflight: must be" in err
    assert "Traceback" not in err
    assert own_shm_segments() == set()
