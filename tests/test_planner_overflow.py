"""The planner's overflow model against what the PBSM driver does.

``estimate_pbsm`` prices repartitioning from the candidate's own tile
grid (``planner.cost.repartition_overflow``): per-partition loads from
the profile's 32 x 32 histograms, then ``PBSM._leaves``'s recursion
replayed on them.  These tests hold it to the driver: the pairs over the
budget on the real grid (``partition_ids``), the repartition events and
simulated seconds of executed joins, and the parallel estimates, which
run the same model since parallel runs repartition like sequential ones
(``planner_parallel_pinned.json``, recorded by :func:`record`).

Re-record the parallel estimates::

    PYTHONPATH=src python -m tests.test_planner_overflow
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.planner.cost as cost_module
from repro import mb
from repro.bench.workloads import (
    PLANNER_MEMORY_FRACTIONS,
    PLANNER_PATTERNS,
    memory_for_fraction,
    planner_pair,
)
from repro.core.space import Space
from repro.datasets import clustered_rects, uniform_rects
from repro.io.costmodel import CostModel
from repro.kernels.assign import partition_ids
from repro.kernels.columnar import ColumnarRelation
from repro.pbsm import PBSM
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TileGrid
from repro.planner import (
    DEFAULT_T_GRID,
    enumerate_candidates,
    estimate_pbsm,
    plan_join,
    profile_join,
)

PARALLEL_PINNED = Path(__file__).with_name("planner_parallel_pinned.json")
MEMORY = mb(0.01)
#: A pair "within a few percent of M" is one the 32 x 32 histograms
#: cannot place on either side of the budget: the count is held between
#: the pairs over (1 + NEAR) M and the pairs over (1 - NEAR) M.
NEAR = 0.05


def workloads():
    """``(name, left, right, memory)``: the planner sweep's pairs at
    n = 4000 and a uniform and a clustered 3000 x 3000 pair."""
    rows = []
    for pattern in PLANNER_PATTERNS:
        left, right = planner_pair(pattern, 4000)
        for fraction in PLANNER_MEMORY_FRACTIONS:
            memory = memory_for_fraction(left, right, fraction)
            rows.append((f"sweep/{pattern}/m={fraction:.2f}", left, right, memory))
    for name, generate in (("uniform", uniform_rects), ("clustered", clustered_rects)):
        left = generate(3000, seed=1)
        right = generate(3000, seed=2, start_oid=10**6)
        rows.append((f"{name}/3000", left, right, MEMORY))
    return rows


WORKLOADS = workloads()
IDS = [name for name, *_ in WORKLOADS]


def pair_sizes(left, right, memory, t):
    """Records per partition pair on the driver's grid for *t*."""
    cols = ColumnarRelation.from_kpes(left), ColumnarRelation.from_kpes(right)
    n_partitions = estimate_partitions(
        len(left), len(right), CostModel().kpe_bytes, memory, t
    )
    grid = TileGrid.for_partitions(Space.of(*cols), n_partitions)
    counts = [np.diff(partition_ids(c, grid, False)[0]) for c in cols]
    both = (counts[0] > 0) & (counts[1] > 0)
    return (counts[0] + counts[1])[both]


@pytest.mark.parametrize("name, left, right, memory", WORKLOADS, ids=IDS)
def test_overflowing_pairs_match_the_driver_grid(name, left, right, memory):
    profile = profile_join(left, right)
    kb = CostModel().kpe_bytes
    for t in DEFAULT_T_GRID:
        sizes = pair_sizes(left, right, memory, t) * kb
        surely = int((sizes > memory * (1 + NEAR)).sum())
        maybe = int((sizes > memory * (1 - NEAR)).sum())
        predicted = estimate_pbsm(profile, memory, CostModel(), t_factor=t).predicted[
            "overflow_pairs"
        ]
        low = surely - max(1, 0.25 * surely)
        high = maybe + max(1, 0.25 * maybe)
        assert low <= predicted <= high, (t, predicted, surely, maybe)


def parallel_estimates(name, left, right, memory):
    """``{key: estimate}``, one W=2 process candidate per ``t``."""
    profile = profile_join(left, right)
    return {
        f"{name}/t={t}": estimate_pbsm(profile, memory, CostModel(), t_factor=t, workers=2)
        for t in DEFAULT_T_GRID
    }


@pytest.mark.parametrize("name, left, right, memory", WORKLOADS, ids=IDS)
def test_parallel_estimates_equal_the_parent_commit(name, left, right, memory):
    """A parallel candidate is priced with the overflow model like a
    sequential one (a parallel run repartitions too), so it predicts
    overflowing pairs and repartitions; every number of its estimate as
    recorded (re-recorded when the overflow model reached parallel
    candidates; the parent commit's figures before that)."""
    pinned = json.loads(PARALLEL_PINNED.read_text())
    for key, estimate in parallel_estimates(name, left, right, memory).items():
        expected = pinned[key]
        assert estimate.io_units == expected["io_units"], key
        assert estimate.cpu_seconds == expected["cpu_seconds"], key
        assert estimate.io_seconds == expected["io_seconds"], key
        assert estimate.breakdown == expected["breakdown"], key
        assert estimate.predicted == expected["predicted"], key
        assert "repartitions" in estimate.predicted, key


def record():
    """Rewrite ``planner_parallel_pinned.json`` from fresh estimates."""
    entries = {}
    for workload in WORKLOADS:
        for key, estimate in parallel_estimates(*workload).items():
            entries[key] = {
                "breakdown": estimate.breakdown,
                "cpu_seconds": estimate.cpu_seconds,
                "io_seconds": estimate.io_seconds,
                "io_units": estimate.io_units,
                "predicted": estimate.predicted,
            }
    lines = [
        f" {json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
        for key in sorted(entries)
    ]
    PARALLEL_PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def scalar_bucket_occupancy(jp, side):
    """``_bucket_occupancy`` as the per-cell loop that defines it."""
    hl, hr = jp.hist_left, jp.hist_right
    res = hl.resolution
    build, co, retained = set(), set(), 0.0
    for iy in range(res):
        for ix in range(res):
            bucket = (min(side - 1, iy * side // res), min(side - 1, ix * side // res))
            if hl.counts[iy * res + ix]:
                build.add(bucket)
            count = hr.counts[iy * res + ix]
            near = any(
                hl.counts[yy * res + xx]
                for yy in range(max(0, iy - 1), min(res, iy + 2))
                for xx in range(max(0, ix - 1), min(res, ix + 2))
            )
            if count and near:
                retained += count
                co.add(bucket)
    return max(1, len(build)), max(1, len(co)), retained / hr.n


def scalar_dup_factor(jp, side, n_partitions):
    """``_sampled_dup_factor`` as the per-pair loop that defines it."""
    xl0, yl0, xh0, yh0 = jp.space
    width, height, last = (xh0 - xl0) or 1.0, (yh0 - yl0) or 1.0, side - 1

    def tile(value, origin, extent):
        return min(last, max(0, int((value - origin) / extent * side)))

    total = 0.0
    for r, s in jp.sample_pairs:
        rxl, rxh = tile(r[1], xl0, width), tile(r[3], xl0, width)
        ryl, ryh = tile(r[2], yl0, height), tile(r[4], yl0, height)
        sxl, sxh = tile(s[1], xl0, width), tile(s[3], xl0, width)
        syl, syh = tile(s[2], yl0, height), tile(s[4], yl0, height)
        k_r = (rxh - rxl + 1) * (ryh - ryl + 1)
        k_s = (sxh - sxl + 1) * (syh - syl + 1)
        shared = (min(rxh, sxh) - max(rxl, sxl) + 1) * (min(ryh, syh) - max(ryl, syl) + 1)
        total += shared + (k_r - shared) * (k_s - shared) / n_partitions
    return total / len(jp.sample_pairs)


@pytest.mark.parametrize("name, left, right, memory", WORKLOADS[::4], ids=IDS[::4])
def test_array_statistics_equal_their_loops(name, left, right, memory):
    """SHJ's bucket occupancy and PBSM's sampled duplicate factor are
    array operations now; every bit of them is the loops'."""
    profile = profile_join(left, right)
    assert profile.sample_pairs
    for side in (1, 2, 3, 5, 9, 13, 16, 33, 40):
        got = cost_module._bucket_occupancy(profile, side)
        assert got == scalar_bucket_occupancy(profile, side), side
        assert [type(x) for x in got] == [int, int, float]
        n_partitions = max(1, side * side // 4)
        assert cost_module._sampled_dup_factor(
            profile, side, n_partitions
        ) == scalar_dup_factor(profile, side, n_partitions), side


def test_the_model_runs_once_per_grid_and_t(monkeypatch):
    left, right = WORKLOADS[-1][1:3]
    profile = profile_join(left, right)
    keys = []
    real = cost_module.repartition_overflow

    def counting(jp, n_partitions, tiles, copies, detected, memory, cost, t):
        keys.append((n_partitions, t))
        return real(jp, n_partitions, tiles, copies, detected, memory, cost, t)

    monkeypatch.setattr(cost_module, "repartition_overflow", counting)
    candidates = enumerate_candidates(profile, MEMORY, workers=2)
    assert len(keys) == len(set(keys)) == len(DEFAULT_T_GRID)
    for candidate in candidates:
        if candidate.method == "pbsm" and "workers" not in candidate.kwargs:
            t = candidate.kwargs["t_factor"]
            alone = estimate_pbsm(profile, MEMORY, CostModel(), t_factor=t)
            assert alone.total_seconds == candidate.estimate.total_seconds
            assert alone.predicted == candidate.estimate.predicted


def test_explain_shows_repartitions_estimated_against_actual():
    left = uniform_rects(3000, seed=1)
    right = uniform_rects(3000, seed=2, start_oid=10**6)
    plan = plan_join(left, right, mb(0.005))
    plan.chosen = next(
        c for c in plan.candidates if c.method == "pbsm" and c.kwargs["t_factor"] == 1.2
    )
    assert plan.chosen.describe() == "pbsm(dedup=rpm, internal=sweep_numpy, t=1.2)"
    actual = plan.execute(left, right).stats.repartition_events
    (line,) = [x for x in plan.explain().splitlines() if "repartitions" in x]
    estimated, shown, _ratio = re.findall(r"[\d.,]+x?", line)
    assert int(shown.replace(",", "")) == actual > 10
    assert abs(float(estimated.replace(",", "")) - actual) <= max(1, 0.25 * actual)


@pytest.mark.parametrize("dataset", ["tiger50k", "uni30k"])
def test_estimates_track_executed_seconds_and_the_cheapest_t(dataset):
    """The benchmark joins on the columnar engine at every ``t``: estimated
    over executed simulated seconds within [0.7, 1.43], and the planner's
    ``t`` within 10 % of the cheapest one executed."""
    from benchmarks.e2e import specs

    spec = {"tiger50k": specs.TIGER50K, "uni30k": specs.UNI30K}[dataset]
    left, right = specs.make_relations(spec, specs.DEFAULT_SEED)
    memory = mb(spec.memory_mb)
    profile = profile_join(left, right)
    executed = {}
    for t in DEFAULT_T_GRID:
        estimate = estimate_pbsm(profile, memory, CostModel(), t_factor=t)
        result = PBSM(memory, internal="sweep_numpy", t_factor=t).run(left, right)
        executed[t] = result.stats.sim_seconds
        assert 0.7 <= estimate.total_seconds / executed[t] <= 1.43, t
    chosen = plan_join(left, right, memory).chosen
    assert chosen.kwargs["internal"] == "sweep_numpy"
    assert executed[chosen.kwargs["t_factor"]] <= 1.1 * min(executed.values())


if __name__ == "__main__":
    record()
