"""Planner: method="auto" vs every fixed method over the planner sweep.

The Fig. 4/12-style grid (uniform/clustered/mixed x tight/comfortable/
all-fits memory) has no fixed winner; the cost-based planner must track
the best fixed method within 1.25x everywhere, and replanning the same
workload must hit the plan cache.  The plans and their simulated seconds
must also be the committed table's: no chosen plan moves unnoticed.
"""

import re

import pytest

from repro.bench.experiments import run_planner_sweep

from benchmarks.conftest import RESULTS_DIR, column, record

#: The columns of ``results/planner.txt`` a fresh run reproduces exactly
#: (``plan_ms`` and ``replan_ms`` are wall time).
HELD_COLUMNS = ("workload", "auto_plan", "auto_sec", "best_fixed", "best_sec", "ratio")


def table_cells(text):
    """``{column: [cell, ...]}`` of a rendered result table, each row cut
    at the spans of the dashed rule under the header."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if re.fullmatch(r"-+( +-+)*", line))
    spans = [m.span() for m in re.finditer(r"-+", lines[rule])]
    rows = []
    for line in lines[rule + 1 :]:
        if line.startswith("note:"):
            break
        rows.append([line[a:b].strip() for a, b in spans])
    header = [lines[rule - 1][a:b].strip() for a, b in spans]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


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
        assert fresh[name] == committed[name], name
    workloads = column(result, "workload")
    ratios = dict(zip(workloads, column(result, "ratio")))
    plans = dict(zip(workloads, column(result, "auto_plan")))

    # Auto stays within 1.25x of the best fixed method on every point.
    for workload in workloads:
        assert ratios[workload] <= 1.25, (workload, plans[workload])

    # The choice is adaptive: the grid does not collapse to one plan.
    assert len(set(plans.values())) > 1

    # Second planning of each workload comes from the plan cache, and a
    # cache hit skips profiling: it must be far cheaper than planning.
    assert all(column(result, "cached"))
    plan_ms = column(result, "plan_ms")
    replan_ms = column(result, "replan_ms")
    for cold, warm in zip(plan_ms, replan_ms):
        assert warm < cold / 5
