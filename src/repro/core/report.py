"""Human-readable execution reports for join statistics.

Used by the CLI's verbose mode and by examples; renders a
:class:`~repro.core.result.JoinStats` as the kind of per-phase breakdown
the paper's figures are built from.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import List

from repro.core.result import JoinStats


def format_stats(stats: JoinStats, verbose: bool = False) -> str:
    """Render join statistics as an aligned multi-line report."""
    lines: List[str] = []
    lines.append(f"algorithm          {stats.algorithm}")
    if stats.executor:
        lines.append(f"executor           {stats.executor}")
    lines.append(f"inputs             {stats.n_left:,} x {stats.n_right:,}")
    lines.append(f"results            {stats.n_results:,}")
    lines.append(f"selectivity        {stats.selectivity():.3e}")
    if stats.records_partitioned:
        lines.append(
            f"partitioned        {stats.records_partitioned:,} records "
            f"(replication {stats.replication_rate:.3f})"
        )
    if stats.n_partitions:
        lines.append(f"partitions         {stats.n_partitions:,}")
    if stats.repartition_events:
        lines.append(f"repartitionings    {stats.repartition_events:,}")
    if stats.duplicates_suppressed:
        lines.append(f"duplicates (RPM)   {stats.duplicates_suppressed:,}")
    if stats.duplicates_sorted_out:
        lines.append(f"duplicates (sort)  {stats.duplicates_sorted_out:,}")
    if stats.memory_overruns:
        lines.append(f"memory overruns    {stats.memory_overruns:,}")
    lines.append(f"io units           {stats.io_units:,.0f}")
    lines.append(
        f"simulated seconds  {stats.sim_seconds:.3f} "
        f"(io {stats.sim_io_seconds:.3f} + cpu {stats.sim_cpu_seconds:.3f})"
    )
    if stats.wall_seconds:
        lines.append(f"wall seconds       {stats.wall_seconds:.3f}")
    if stats.join_busy_seconds or stats.join_makespan_seconds:
        lines.append(
            f"join busy/makespan {stats.join_busy_seconds:.3f}s / "
            f"{stats.join_makespan_seconds:.3f}s"
        )
    if stats.n_workers > 1 and stats.join_makespan_seconds:
        lines.append(
            f"worker utilization {stats.worker_utilization:.1%} "
            f"over {stats.n_workers} workers"
        )
        if stats.scheduler_idle_seconds:
            lines.append(
                f"scheduler idle     {stats.scheduler_idle_seconds:.3f}s"
            )
    if stats.ipc_bytes_shipped:
        lines.append(
            f"ipc shipped        {stats.ipc_bytes_shipped:,} bytes "
            f"({stats.ipc_seconds:.3f}s serialisation)"
        )
    if stats.planning_seconds:
        lines.append(f"planning seconds   {stats.planning_seconds:.3f}")
    if stats.total_wall_seconds:
        lines.append(f"total wall seconds {stats.total_wall_seconds:.3f}")
    if verbose and stats.worker_busy_seconds:
        lines.append("per-worker busy seconds:")
        for worker, seconds in sorted(stats.worker_busy_seconds.items()):
            lines.append(f"  {worker:<14} {seconds:>8.3f}s")
    if verbose and stats.sim_seconds_by_phase:
        lines.append("per-phase simulated seconds:")
        for phase, seconds in sorted(stats.sim_seconds_by_phase.items()):
            units = stats.io_units_by_phase.get(phase, 0.0)
            lines.append(f"  {phase:<14} {seconds:>8.3f}s  ({units:,.0f} io units)")
    if verbose and stats.cpu_by_phase:
        lines.append("per-phase operation counts:")
        for phase, counts in sorted(stats.cpu_by_phase.items()):
            interesting = {k: v for k, v in counts.items() if v}
            if interesting:
                rendered = ", ".join(
                    f"{name}={value:,}" for name, value in sorted(interesting.items())
                )
                lines.append(f"  {phase:<14} {rendered}")
    return "\n".join(lines)


def stats_to_dict(stats: JoinStats) -> dict:
    """The machine-readable report: every measured field plus derived ones.

    This is what the CLI's ``--report`` writes and what downstream
    tooling should consume instead of parsing :func:`format_stats`.  All
    dataclass fields are included verbatim; the derived totals
    (``wall_seconds``, ``sim_seconds``, ``io_units``, rates) are
    materialised so consumers need no recomputation.
    """
    out = asdict(stats)
    out["wall_seconds"] = stats.wall_seconds
    out["sim_seconds"] = stats.sim_seconds
    out["io_units"] = stats.io_units
    out["replication_rate"] = stats.replication_rate
    out["selectivity"] = stats.selectivity()
    out["worker_utilization"] = stats.worker_utilization
    return out
