"""Planner: method="auto" vs every fixed method over the planner sweep.

The Fig. 4/12-style grid (uniform/clustered/mixed x tight/comfortable/
all-fits memory) has no fixed winner; the cost-based planner must track
the best fixed method within 1.25x everywhere, and replanning the same
workload must hit the plan cache.  The plans and their simulated seconds
must also be the committed table's: no chosen plan moves unnoticed.
"""

import pytest

from repro.bench.experiments import run_planner_sweep
from repro.bench.render import table_cells

from benchmarks.conftest import RESULTS_DIR, column, record

#: The columns of ``results/planner.txt`` a fresh run reproduces exactly
#: (``plan_ms`` and ``replan_ms`` are wall time).
HELD_COLUMNS = ("workload", "auto_plan", "auto_sec", "best_fixed", "best_sec", "ratio")


@pytest.mark.benchmark(group="planner")
def test_planner_auto_tracks_best_fixed(benchmark):
    committed = table_cells((RESULTS_DIR / "planner.txt").read_text())
    # n=4000 per side: the size at which the three regimes separate
    # (PBSM on uniform, SHJ on clustered, memory-dependent on mixed).
    result = benchmark.pedantic(
        run_planner_sweep, kwargs={"n": 4000}, rounds=1, iterations=1
    )
    record("planner", result)
    fresh = table_cells(result.to_text())
    for name in HELD_COLUMNS:
        assert fresh[name] == committed[name], (name, fresh[name], committed[name])
    workloads = column(result, "workload")
    ratios = dict(zip(workloads, column(result, "ratio")))
    plans = dict(zip(workloads, column(result, "auto_plan")))

    # Auto stays within 1.25x of the best fixed method on every point.
    for workload in workloads:
        assert ratios[workload] <= 1.25, (workload, ratios[workload], plans[workload])

    # The choice is adaptive: the grid does not collapse to one plan.
    assert len(set(plans.values())) > 1, plans

    # Second planning of each workload comes from the plan cache, and a
    # cache hit skips profiling: it must be far cheaper than planning.
    assert all(column(result, "cached")), dict(zip(workloads, column(result, "cached")))
    plan_ms = column(result, "plan_ms")
    replan_ms = column(result, "replan_ms")
    for workload, cold, warm in zip(workloads, plan_ms, replan_ms):
        assert warm < cold / 5, (workload, "replan_ms", warm, "plan_ms", cold)
