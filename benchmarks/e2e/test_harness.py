"""Tests of the benchmark harness itself.

Run with ``PYTHONPATH=src:. python -m pytest benchmarks/e2e -q``; tier-1
(``testpaths = tests``) does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import REPO_ROOT, aa, harness, layers, procs, reference, specs, speed
from benchmarks.e2e.__main__ import main
from benchmarks.e2e.harness import BlockResult, Timing
from benchmarks.e2e.server import ServerProcess
from benchmarks.e2e.workloads import Outcome, Workload


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    assert harness.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert harness.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert harness.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_aggregate_takes_medians_over_the_whole_run_at_reference_speed():
    blocks = [
        # a slow stretch of the box: twice the wall time at half the speed
        BlockResult(Timing(4.0, 0.5), [Timing(0.24, 0.5), Timing(0.20, 0.5)], peak_rss_mb=70.0),
        BlockResult(Timing(1.0), [Timing(0.11), Timing(0.13)], peak_rss_mb=60.0),
        BlockResult(Timing(3.0), [Timing(0.12), Timing(0.10)], peak_rss_mb=50.0),
    ]
    metrics = harness.aggregate(blocks)
    assert set(metrics) == {m.name for m in specs.END_TO_END}
    assert metrics["setup_s"] == 2.0  # the median of the block set-ups, not the first
    assert metrics["lat_p50_ms"] == pytest.approx(115.0)  # over all six ops
    assert metrics["ops_per_s"] == pytest.approx(6 / 0.68)  # ops / sum of the timed windows
    assert metrics["peak_rss_mb"] == 70.0


def test_aggregate_refuses_a_run_with_no_successful_op():
    with pytest.raises(RuntimeError):
        harness.aggregate([BlockResult(Timing(1.0), failures=["boom"])])


# ----------------------------------------------------------------------
# failure accounting and op counts
# ----------------------------------------------------------------------
class ScriptedWorkload(Workload):
    """Ops follow a script: pairs to return, or an exception to raise."""

    def __init__(self, script):
        super().__init__(specs.TIGER50K, 1, Path("."))
        self.script = list(script)
        self.setups = self.teardowns = 0

    def setup(self):
        self.setups += 1

    def op(self):
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return Outcome(step)

    def teardown(self):
        self.teardowns += 1


GOOD = [(1, 2), (3, 4)]
EXPECTED = reference.Expected(2, reference.checksum(reference.pairs_array(GOOD)))


def test_failed_ops_are_counted_and_excluded_from_latency():
    script = [GOOD, [(1, 2), (1, 2)], RuntimeError("engine down"), [(1, 2), (3, 5)], GOOD[::-1]]
    workload = ScriptedWorkload(script)
    block = harness.run_block(workload, EXPECTED, harness.fixed_ops(5))
    assert block.attempted == 5
    assert len(block.ops) == 2  # the two correct results, in either order
    assert len(block.failures) == 3
    assert "more than once" in block.failures[0]
    assert "engine down" in block.failures[1]
    assert "checksum differs" in block.failures[2]
    assert (workload.setups, workload.teardowns) == (1, 1)


def test_fixed_op_count_is_independent_of_speed():
    for delay in (0.0, 0.02):

        class Slow(ScriptedWorkload):
            def op(self):
                time.sleep(delay)
                return super().op()

        block = harness.run_block(Slow([GOOD] * 4), EXPECTED, harness.fixed_ops(4))
        assert block.attempted == 4


def test_op_counts_depend_on_the_arguments_alone():
    assert [harness.ops_per_block(w.name, specs.RUN_SECONDS) for w in specs.WORKLOADS] == [
        w.ops_per_block for w in specs.WORKLOADS
    ]
    # --seconds 35 is issue 12's run: 5 x 7, 4, 10 and 7 ops
    assert [harness.ops_per_block(w.name, 35) for w in specs.WORKLOADS] == [7, 4, 10, 7]
    assert harness.ops_per_block("lib_mapped_auto", 1) == 1  # never less than one op


def test_teardown_runs_when_setup_fails():
    class Broken(ScriptedWorkload):
        def setup(self):
            raise RuntimeError("no server")

    workload = Broken([])
    with pytest.raises(RuntimeError, match="no server"):
        harness.run_block(workload, EXPECTED, harness.fixed_ops(1))
    assert workload.teardowns == 1


def test_a_block_that_leaves_a_child_behind_fails_the_run():
    class Leaky(ScriptedWorkload):
        def setup(self):
            self.child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])

    workload = Leaky([GOOD])
    try:
        with pytest.raises(RuntimeError, match="child processes left behind"):
            harness.run_block(workload, EXPECTED, harness.fixed_ops(1))
    finally:
        workload.child.kill()
        workload.child.wait()


def test_leaked_segments_blames_only_the_given_pids(tmp_path, monkeypatch):
    monkeypatch.setattr(procs, "SHM_DIR", str(tmp_path))
    for name in ("repro_shm_41_0_aa", "repro_shm_411_0_bb", "psm_other"):
        (tmp_path / name).touch()
    assert procs.leaked_segments([41]) == ["repro_shm_41_0_aa"]
    assert procs.leaked_segments([7]) == []


# ----------------------------------------------------------------------
# speed sensors
# ----------------------------------------------------------------------
def test_speed_is_weighted_by_where_the_cpu_time_was_spent(monkeypatch):
    sensors = speed.SpeedSensors.__new__(speed.SpeedSensors)
    monkeypatch.setattr(sensors, "_mean_speed", lambda cpu, start, end: {0: 1.0, 1: 0.5}[cpu], raising=False)
    before = {10: (100, 0), 11: (50, 1)}
    after = {10: (130, 0), 11: (60, 1), 12: (10, 1)}  # thread 12 is new: all its ticks count
    assert sensors.speed(0.0, 1.0, before, after) == pytest.approx((30 * 1.0 + 20 * 0.5) / 50)


def test_sensors_read_every_cpu_and_stop_with_the_run():
    with speed.SpeedSensors() as sensors:
        pids = sensors.pids
        assert set(pids) <= set(procs.children_of(os.getpid()))
        started = time.perf_counter()
        while time.perf_counter() - started < 0.2:
            pass
        mine = speed.cpu_times([os.getpid()])
        value = sensors.speed(started, time.perf_counter(), {}, mine)
        assert 0.2 < value < 5.0
        # an interval shorter than the sensors' period still has a reading
        assert sensors.speed(started, started + 1e-4, {}, mine) > 0
    assert not set(pids) & set(procs.children_of(os.getpid()))


# ----------------------------------------------------------------------
# process tree
# ----------------------------------------------------------------------
def test_process_tree_rss_and_cpu():
    script = (
        "import subprocess, sys, time;"
        "c = subprocess.Popen([sys.executable, '-c', 'x = bytearray(30_000_000); import time; time.sleep(30)']);"
        "time.sleep(30)"
    )
    parent = subprocess.Popen([sys.executable, "-c", script])
    try:
        deadline = time.monotonic() + 10
        while len(procs.process_tree(parent.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        tree = procs.process_tree(parent.pid)
        assert tree[0] == parent.pid and len(tree) == 2
        assert parent.pid in procs.children_of(os.getpid())
        while procs.vm_hwm_mb(tree[1]) < 30 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert procs.tree_peak_rss_mb(parent.pid) > procs.vm_hwm_mb(parent.pid) + 30
        assert procs.cpu_seconds(tree) >= 0.0
    finally:
        for pid in reversed(procs.process_tree(parent.pid)):
            os.kill(pid, 9)
        parent.wait()


def test_server_that_cannot_start_raises_and_leaves_nothing(tmp_path):
    server = ServerProcess(tmp_path, tmp_path / "missing_L.rcd", tmp_path / "missing_R.rcd")
    try:
        with pytest.raises(RuntimeError, match="before it was ready"):
            server.start()
    finally:
        server.stop()
    assert not procs.leaked_segments(server.seen_pids + [os.getpid()])


# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------
def test_reference_matches_naive_double_loop_and_program_checksum():
    from repro.serve import result_checksum

    dataset = specs.UNI30K.scaled(300)
    left, right = specs.make_relations(dataset, seed=7)
    naive = [
        (r[0], s[0])
        for r in left
        for s in right
        if r[1] <= s[3] and s[1] <= r[3] and r[2] <= s[4] and s[2] <= r[4]
    ]
    found = reference.brute_force_pairs(left, right)
    assert sorted(map(tuple, found.tolist())) == sorted(naive)
    assert naive, "the sample must contain intersecting pairs"
    assert reference.checksum(found) == result_checksum(naive)
    assert reference.check_pairs(naive, reference.compute_expected(left, right)) is None
    assert "more than once" in reference.check_pairs(naive + naive[:1], reference.Expected(len(naive) + 1, ""))


def test_seed_changes_the_order_but_not_the_geometry():
    dataset = specs.TIGER50K.scaled(500)
    first = specs.make_relations(dataset, seed=1)
    again = specs.make_relations(dataset, seed=1)
    other = specs.make_relations(dataset, seed=2)
    assert first == again
    assert first != other
    assert [sorted(side) for side in first] == [sorted(side) for side in other]
    assert min(kpe[0] for kpe in first[1]) == specs.RIGHT_OID_BASE


def test_expected_json_covers_the_full_scale_datasets():
    committed = reference.load_expected()
    assert set(committed) == {specs.TIGER50K.name, specs.UNI30K.name}
    assert committed["tiger50k"].n_pairs == 126_806
    assert committed["uni30k"].n_pairs == 352_671


# ----------------------------------------------------------------------
# A/A verdicts
# ----------------------------------------------------------------------
def test_aa_judges_spread_and_drift_against_the_bound():
    latency = specs.Metric("lat_p50_ms", "ms", "lower", 0.10)
    steady = [100 + i for i in range(10)]
    assert aa.judge(latency, [steady, steady])["violations"] == []
    slower = [v * 1.2 for v in steady]
    assert any("drift" in v for v in aa.judge(latency, [steady, slower])["violations"])
    assert aa.judge(latency, [slower, steady])["violations"] == []  # faster is not worse
    noisy = [100, 60, 140, 100, 50, 150, 100, 70, 130, 100]
    assert any("spread" in v for v in aa.judge(latency, [noisy])["violations"])
    setup = specs.Metric("setup_s", "s", "lower", 0.15)
    assert any("spread" in v for v in aa.judge(setup, [noisy])["violations"])  # no exemption
    rate = specs.Metric("ops_per_s", "1/s", "higher", 0.10)
    assert any("drift" in v for v in aa.judge(rate, [slower, steady])["violations"])


# ----------------------------------------------------------------------
# BENCHMARK.json and the smoke scale
# ----------------------------------------------------------------------
def test_benchmark_json_agrees_with_specs():
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert document["paths"] == ["benchmarks/e2e"]
    assert document["run_seconds"] == specs.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in specs.WORKLOADS
    ]
    assert [tuple(m.values()) for m in document["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in specs.END_TO_END
    ]
    assert [tuple(m.values()) for m in document["per_layer"]] == [
        (m.name, m.unit, m.better) for m in specs.PER_LAYER
    ]
    assert all(len(w.why) <= 200 for w in specs.WORKLOADS)


def test_smoke_scale_runs_everything_in_under_a_minute(tmp_path, capsys):
    out = tmp_path / "record.json"
    started = time.monotonic()
    assert main(["--smoke", "--out", str(out)]) == 0
    assert time.monotonic() - started < 60
    record = json.loads(out.read_text())
    assert record["correct"]
    for spec in specs.WORKLOADS:
        end_to_end = record["end_to_end"][spec.name]
        assert (end_to_end["attempted"], end_to_end["failed"]) == (spec.ops_per_block, 0)
        assert set(end_to_end["metrics"]) == {m.name for m in specs.END_TO_END}
        assert all(entry["value"] > 0 for entry in end_to_end["metrics"].values())
        layers = record["per_layer"][spec.name]["metrics"]
        assert set(layers) == {m.name for m in specs.PER_LAYER}
        assert all(entry["value"] is not None for entry in layers.values())
    assert not list(harness.TMP_ROOT.glob("run-*"))


def test_reference_record_is_in_the_replication_regime():
    """The committed full-scale record: every workload partitions into more
    than one partition and creates replicas (at mb(2.5) none would), and
    the replayed layers cover the op except where the README says not."""
    record = json.loads((layers.RESULTS_DIR / "BENCH_e2e.json").read_text())
    assert record["correct"]
    for spec in specs.WORKLOADS:
        assert record["end_to_end"][spec.name]["failed"] == 0
        metrics = record["per_layer"][spec.name]["metrics"]
        assert set(metrics) == {m.name for m in specs.PER_LAYER}
        assert metrics["partitioner.n_partitions"]["value"] > 1
        assert metrics["partitioner.replicas_created"]["value"] > 0
        covered = 0.75 <= metrics["trace.path_coverage"]["value"] <= 1.25
        # README, "Unmeasured layers": repartitioned pairs of the sequential driver
        assert covered != (spec.name == "lib_mapped_auto")
    default = record["per_layer"]["lib_default"]["metrics"]
    assert default["partitioner.n_partitions"]["value"] == 10
    assert default["dedup.duplicates_suppressed"]["value"] == 6126
    mapped = record["per_layer"]["lib_mapped_auto"]["metrics"]
    assert mapped["partitioner.replication_rate"]["value"] == pytest.approx(1.2, abs=0.01)
