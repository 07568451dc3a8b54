"""The observability layer: spans, export, metrics, and reconciliation.

The contract under test is the one ``docs/observability.md`` documents:
every driver derives ``JoinStats.wall_seconds_by_phase`` from the spans
it records, so with a recording tracer attached the trace and the stats
agree *exactly* for sequential drivers; the process executor ships
per-task wall times across the pool boundary so worker busy time is
visible; and the whole layer collapses to near-nothing when tracing is
off (the :data:`NULL_TRACER` default).
"""

import json
import re
from pathlib import Path

import pytest

import repro.core.phases as phases_module
from repro import spatial_join
from repro.core.phases import ALL_PHASES, PHASE_DEDUP, PHASE_JOIN, PHASE_PARTITION
from repro.core.report import format_stats, stats_to_dict
from repro.core.result import JoinStats
from repro.io.costmodel import mb
from repro.io.disk import Ledger
from repro.kernels.shm import shm_enabled
from repro.obs import (
    KIND_PHASE,
    KIND_PLAN,
    KIND_RUN,
    KIND_SECTION,
    KIND_TASK,
    KIND_WORKER,
    MetricsRegistry,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TraceValidationError,
    phase_totals,
    read_trace,
    summarize_trace,
    validate_span_dict,
    worker_busy,
)
from repro.pbsm import PBSM
from repro.rtree import RTreeJoin
from repro.s3j import S3J
from repro.shj import SpatialHashJoin
from repro.sssj import SSSJ

from tests.conftest import random_kpes


# ----------------------------------------------------------------------
# tracer mechanics
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer", kind=KIND_RUN) as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id == inner.span_id
            assert tracer.current_span_id == outer.span_id
        assert tracer.current_span_id is None
        spans = {s.name: s for s in tracer.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].t_start >= spans["outer"].t_start
        assert spans["inner"].t_end <= spans["outer"].t_end

    def test_tags_drop_none_values(self):
        tracer = Tracer()
        with tracer.span("s", kind=KIND_SECTION, kept="x", dropped=None):
            pass
        assert tracer.spans[0].tags == {"kept": "x"}

    def test_cpu_counter_deltas_attach(self):
        tracer = Tracer()
        ledger = Ledger(JoinStats(), (PHASE_JOIN,), None, tracer)
        cpu = ledger.cpu[PHASE_JOIN]
        cpu.comparisons = 100  # pre-existing counts must not leak in
        with ledger.phase(PHASE_JOIN):
            cpu.comparisons += 7
            cpu.intersection_tests += 3
        counters = tracer.spans[0].counters
        assert counters["comparisons"] == 7
        assert counters["intersection_tests"] == 3

    def test_add_span_places_externally_timed_span(self):
        tracer = Tracer()
        with tracer.span("run", kind=KIND_RUN):
            span = tracer.add_span(
                "task", 0.25, counters={"zero": 0, "kept": 2}, worker="w1"
            )
        assert span.kind == KIND_TASK
        assert span.parent_id == tracer.spans[-1].span_id or span in tracer.spans
        assert span.wall_seconds == pytest.approx(0.25)
        assert span.counters == {"kept": 2}  # zero-valued dropped
        assert span.tags == {"worker": "w1"}

    def test_wall_by_phase_aggregates_phase_spans_only(self):
        tracer = Tracer()
        tracer.add_span(PHASE_JOIN, 0.5, kind=KIND_PHASE)
        tracer.add_span(PHASE_JOIN, 0.25, kind=KIND_PHASE)
        tracer.add_span(PHASE_JOIN, 9.0, kind=KIND_TASK)  # not a phase
        totals = tracer.wall_by_phase()
        assert totals == {PHASE_JOIN: pytest.approx(0.75)}

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError
        assert len(tracer.spans) == 1
        assert tracer.current_span_id is None

    def test_obs_knows_no_simulated_disk(self):
        obs = REPO_ROOT / "src" / "repro" / "obs"
        for path in obs.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"^\s*(from|import) repro\.io\b", text, re.M), path.name


class TestNullTracer:
    def test_not_recording_but_spans_still_time(self):
        assert NULL_TRACER.recording is False
        with NULL_TRACER.span("p") as sp:
            pass
        assert sp.wall_seconds >= 0.0
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.add_span("t", 1.0) is None
        assert NULL_TRACER.wall_by_phase() == {}

    def test_write_is_a_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert NullTracer().write(path) == 0
        assert not path.exists()


# ----------------------------------------------------------------------
# export: JSONL round-trip and validation
# ----------------------------------------------------------------------
class TestExport:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run", kind=KIND_RUN, method="pbsm"):
            with tracer.span(PHASE_PARTITION):
                pass
        path = tmp_path / "t.jsonl"
        assert tracer.write(path) == 2
        spans = read_trace(path)
        assert [s["name"] for s in spans] == [PHASE_PARTITION, "run"]
        assert spans[1]["tags"] == {"method": "pbsm"}
        assert phase_totals(spans).keys() == {PHASE_PARTITION}

    def valid_record(self):
        return Span(1, None, "x", KIND_PHASE, 0.0, 1.0).to_dict()

    def test_validate_rejects_missing_field(self):
        record = self.valid_record()
        del record["kind"]
        with pytest.raises(TraceValidationError, match="missing field 'kind'"):
            validate_span_dict(record)

    def test_validate_rejects_unknown_kind(self):
        record = self.valid_record()
        record["kind"] = "interpretive_dance"
        with pytest.raises(TraceValidationError, match="unknown span kind"):
            validate_span_dict(record)

    def test_validate_rejects_wall_mismatch(self):
        record = self.valid_record()
        record["wall_seconds"] = 2.0
        with pytest.raises(TraceValidationError, match="disagrees"):
            validate_span_dict(record)

    def test_validate_rejects_wrong_schema_and_types(self):
        record = self.valid_record()
        record["schema"] = 99
        with pytest.raises(TraceValidationError, match="schema version"):
            validate_span_dict(record)
        record = self.valid_record()
        record["span_id"] = True  # bool is not an acceptable int here
        with pytest.raises(TraceValidationError, match="has type bool"):
            validate_span_dict(record)

    def test_read_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceValidationError, match="line 1"):
            read_trace(path)

    def test_summarize_and_worker_busy(self):
        tracer = Tracer()
        worker = tracer.add_span("worker", 0.5, kind=KIND_WORKER, worker="w0")
        tracer.add_span(
            "task", 0.3, kind=KIND_TASK, parent_id=worker.span_id, worker="w0"
        )
        spans = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert worker_busy(spans) == {"w0": pytest.approx(0.5)}
        text = summarize_trace(spans)
        assert "2 spans" in text
        assert "worker w0" in text


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_render(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", "Cache hits")
        registry.inc("hits_total", 2, cache="plan")
        registry.inc("hits_total", 3, cache="plan")
        registry.set("depth", 4.0)
        text = registry.render()
        assert '# TYPE hits_total counter' in text
        assert 'hits_total{cache="plan"} 5' in text
        assert "depth 4" in text
        assert registry.get("hits_total", cache="plan") == 5

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.inc("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.set("x_total", 1.0)

    def test_observe_trace_handles_name_label(self):
        # Regression: a span *label* literally called "name" must not
        # collide with inc()'s metric-name parameter.
        tracer = Tracer()
        tracer.add_span(PHASE_JOIN, 0.5, kind=KIND_PHASE)
        spans = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        registry = MetricsRegistry()
        registry.observe_trace(spans)
        text = registry.render()
        assert 'repro_trace_spans_total{kind="phase"} 1' in text
        assert f'kind="phase",name="{PHASE_JOIN}"' in text

    def test_observe_join(self, small_pair):
        left, right = small_pair
        result = PBSM(mb(0.5)).run(left, right)
        registry = MetricsRegistry()
        registry.observe_join(result.stats)
        assert registry.get(
            "repro_join_results_total", algorithm=result.stats.algorithm
        ) == result.stats.n_results


class TestHistogramQuantileEdgeCases:
    """quantile() must stay finite and sensible on every degenerate shape."""

    def test_unobserved_returns_zero(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        assert registry.quantile("lat", 0.5) == 0.0
        assert registry.quantile("missing", 0.5) == 0.0

    def test_q_zero_and_one_bracket_the_distribution(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0):
            registry.observe("lat", value)
        q0 = registry.quantile("lat", 0.0)
        q1 = registry.quantile("lat", 1.0)
        assert 0.0 <= q0 <= q1 <= 4.0
        import math

        assert math.isfinite(q0) and math.isfinite(q1)

    def test_out_of_range_q_is_clamped(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 2.0))
        registry.observe("lat", 1.5)
        assert registry.quantile("lat", -0.5) == registry.quantile("lat", 0.0)
        assert registry.quantile("lat", 3.0) == registry.quantile("lat", 1.0)

    def test_all_mass_in_inf_bucket_clamps_to_last_finite_edge(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.1, 0.2))
        for _ in range(5):
            registry.observe("lat", 99.0)  # beyond every finite edge
        for q in (0.0, 0.5, 0.99, 1.0):
            assert registry.quantile("lat", q) == 0.2

    def test_explicit_inf_edge_never_leaks(self):
        import math

        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(0.5, math.inf))
        registry.observe("lat", 0.1)
        registry.observe("lat", 100.0)
        for q in (0.0, 0.5, 1.0):
            assert math.isfinite(registry.quantile("lat", q))
        assert registry.quantile("lat", 1.0) == 0.5

    def test_no_finite_edges_falls_back_to_mean(self):
        import math

        registry = MetricsRegistry()
        registry.histogram("lat", buckets=())
        registry.observe("lat", 2.0)
        registry.observe("lat", 4.0)
        assert registry.quantile("lat", 0.5) == 3.0
        inf_only = MetricsRegistry()
        inf_only.histogram("lat", buckets=(math.inf,))
        inf_only.observe("lat", math.inf)
        assert inf_only.quantile("lat", 0.5) == 0.0


# ----------------------------------------------------------------------
# driver reconciliation: the trace IS the stats
# ----------------------------------------------------------------------
DRIVERS = [
    pytest.param(lambda tr: PBSM(mb(0.5), tracer=tr), id="pbsm"),
    pytest.param(lambda tr: PBSM(mb(0.5), dedup="sort", tracer=tr), id="pbsm-sort"),
    pytest.param(lambda tr: S3J(mb(0.5), tracer=tr), id="s3j"),
    pytest.param(lambda tr: SSSJ(mb(0.5), tracer=tr), id="sssj"),
    pytest.param(lambda tr: SpatialHashJoin(mb(0.5), tracer=tr), id="shj"),
    pytest.param(lambda tr: RTreeJoin(tracer=tr), id="rtree"),
    pytest.param(
        lambda tr: PBSM(mb(0.25), workers=2, executor="simulated", tracer=tr),
        id="pbsm-w2-simulated",
    ),
]


class TestDriverReconciliation:
    @pytest.mark.parametrize("make", DRIVERS)
    def test_phase_walls_equal_trace(self, make, small_pair):
        left, right = small_pair
        tracer = Tracer()
        result = make(tracer).run(left, right)
        stats_phases = result.stats.wall_seconds_by_phase
        assert stats_phases  # drivers always record their phases
        # Exact equality: both numbers are the same span measurement.
        assert stats_phases == tracer.wall_by_phase()
        assert set(stats_phases) <= set(ALL_PHASES)
        assert len(tracer.spans_of_kind(KIND_RUN)) == 1

    @pytest.mark.parametrize("make", DRIVERS)
    def test_stats_identical_with_tracing_off(self, make, small_pair):
        left, right = small_pair
        traced = make(Tracer()).run(left, right)
        untraced = make(None).run(left, right)
        assert untraced.pairs == traced.pairs
        # The phases exist (and cover the same keys) either way.
        assert set(untraced.stats.wall_seconds_by_phase) == set(
            traced.stats.wall_seconds_by_phase
        )

    @pytest.mark.parametrize("make", DRIVERS)
    def test_phase_span_io_units_sum_to_the_stats(self, make, small_pair):
        left, right = small_pair
        tracer = Tracer()
        stats = make(tracer).run(left, right).stats
        spans = tracer.spans_of_kind(KIND_PHASE)
        assert sum(s.counters.get("io_units", 0) for s in spans) == pytest.approx(
            stats.io_units
        )

    @pytest.mark.parametrize("dedup", ["rpm", "sort"])
    def test_pbsm_run_builds_its_result_under_one_section(self, dedup, small_pair):
        left, right = small_pair
        tracer = Tracer()
        stats = PBSM(mb(0.5), dedup=dedup, tracer=tracer).run(left, right).stats
        built = [s for s in tracer.spans if s.name == "result"]
        assert len(built) == 1
        assert built[0].kind == KIND_SECTION
        # A sibling after the run span, not a phase inside it.
        (run,) = tracer.spans_of_kind(KIND_RUN)
        assert built[0].parent_id == run.parent_id
        assert built[0].t_start >= run.t_end
        phases = {PHASE_PARTITION, PHASE_JOIN}
        if dedup == "sort":
            phases.add(PHASE_DEDUP)
        assert set(stats.wall_seconds_by_phase) == phases

    def test_phase_spans_carry_counters(self, small_pair):
        left, right = small_pair
        tracer = Tracer()
        PBSM(mb(0.5), tracer=tracer).run(left, right)
        join_span = [
            s for s in tracer.spans_of_kind(KIND_PHASE) if s.name == PHASE_JOIN
        ][0]
        assert join_span.counters.get("io_units", 0) > 0


# ----------------------------------------------------------------------
# phase names come from repro.core.phases, never from a literal
# ----------------------------------------------------------------------
_NAME = "(?:" + "|".join(map(re.escape, ALL_PHASES)) + ")"
_QUOTED = f"[\"']{_NAME}[\"']"
#: A phase name written as a string literal where a phase key goes:
#: ``x_by_phase["join"]`` and its ``.get/.setdefault/.pop``, ``phase=``,
#: a comparison with a ``*phase`` name, ``.phase("join")``.
PHASE_LITERAL = re.compile(
    "|".join(
        (
            rf"_by_phase(?:\[|\.(?:get|setdefault|pop)\()\s*{_QUOTED}",
            rf"\bphase\s*=\s*{_QUOTED}",
            rf"phase\s*[=!]=\s*{_QUOTED}",
            rf"{_QUOTED}\s*[=!]=\s*[\w.]*phase\b",
            rf"\.phase\(\s*{_QUOTED}",
        )
    )
)
REPO_ROOT = Path(__file__).resolve().parent.parent


class TestPhaseLiteral:
    """A literal phase key can drift from the one every driver writes."""

    def test_no_phase_literal_in_a_phase_position(self):
        # This file holds the shapes below; phases.py defines the names.
        exempt = {Path(__file__).resolve(), Path(phases_module.__file__).resolve()}
        hits = [
            f"{path.relative_to(REPO_ROOT)}:{n}"
            for top in ("src", "benchmarks", "tests")
            for path in sorted((REPO_ROOT / top).rglob("*.py"))
            if path.resolve() not in exempt
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if PHASE_LITERAL.search(line)
        ]
        assert hits == []

    def test_flags_by_phase_subscript(self):
        assert PHASE_LITERAL.search('return stats.cpu_by_phase["join"]')

    def test_flags_by_phase_get(self):
        assert PHASE_LITERAL.search("s.io_units_by_phase.get('repartition', 0)")
        assert PHASE_LITERAL.search('s.wall_seconds_by_phase.setdefault("sort", 0.0)')

    def test_flags_phase_keyword(self):
        assert PHASE_LITERAL.search('timer.charge(1.0, phase="dedup")')

    def test_flags_comparison_against_phase(self):
        assert PHASE_LITERAL.search('return span.phase == "sort"')
        assert PHASE_LITERAL.search('if "build" != current_phase:')

    def test_flags_phase_method(self):
        assert PHASE_LITERAL.search('with tracer.phase("partition"):')

    def test_constant_from_core_phases_is_clean(self):
        assert not PHASE_LITERAL.search("return stats.cpu_by_phase[PHASE_JOIN]")

    def test_non_phase_context_stays_legal(self):
        # argparse choices, keys of unrelated maps: "join" is a fine word
        # outside a phase position (cli.py's situation).
        assert not PHASE_LITERAL.search('sub.add_parser("join")')
        assert not PHASE_LITERAL.search('return {"mode": "sort"}')
        assert not PHASE_LITERAL.search('tracer.span("join")')


# ----------------------------------------------------------------------
# parallel execution: per-task wall crosses the process boundary
# ----------------------------------------------------------------------
class TestParallelTiming:
    def test_in_process_busy_and_makespan(self, small_pair):
        left, right = small_pair
        tracer = Tracer()
        join = PBSM(
            mb(0.25), internal="sweep_trie", workers=2, executor="simulated",
            tracer=tracer,
        )
        result = join.run(left, right)
        stats = result.stats
        assert stats.join_busy_seconds > 0
        assert stats.join_makespan_seconds > 0
        # One process: busy cannot exceed the observed elapsed time.
        assert stats.join_busy_seconds <= stats.join_makespan_seconds * 1.5
        task_spans = tracer.spans_of_kind(KIND_TASK)
        assert task_spans
        assert sum(s.wall_seconds for s in task_spans) == pytest.approx(
            stats.join_busy_seconds
        )

    def test_process_mode_emits_worker_spans(self):
        workers = 2
        left = random_kpes(600, seed=31, max_edge=0.05)
        right = random_kpes(600, seed=32, start_oid=10_000, max_edge=0.05)
        tracer = Tracer()
        join = PBSM(
            mb(0.25), internal="sweep_trie", workers=workers, executor="process",
            tracer=tracer,
        )
        result = join.run(left, right)
        stats = result.stats

        worker_spans = tracer.spans_of_kind(KIND_WORKER)
        task_spans = tracer.spans_of_kind(KIND_TASK)
        assert len(worker_spans) >= workers
        assert task_spans
        # A chunk's wall includes its tasks' walls, so summed worker time
        # dominates summed task time.
        worker_wall = sum(s.wall_seconds for s in worker_spans)
        task_wall = sum(s.wall_seconds for s in task_spans)
        assert worker_wall >= task_wall
        # Task spans hang off worker spans.
        worker_ids = {s.span_id for s in worker_spans}
        assert all(s.parent_id in worker_ids for s in task_spans)

        # Worker-measured busy time survived the pool boundary.
        assert stats.join_busy_seconds == pytest.approx(task_wall)
        assert stats.join_makespan_seconds > 0
        assert stats.worker_busy_seconds
        assert sum(stats.worker_busy_seconds.values()) == pytest.approx(
            worker_wall
        )
        # And the results still match the sequential execution.
        sequential = PBSM(mb(0.25), internal="sweep_trie").run(left, right)
        assert set(result.pairs) == set(sequential.pairs)

    def test_process_mode_untraced_still_accounts_time(self):
        left = random_kpes(300, seed=33, max_edge=0.05)
        right = random_kpes(300, seed=34, start_oid=10_000, max_edge=0.05)
        join = PBSM(mb(0.25), internal="sweep_trie", workers=2)
        stats = join.run(left, right).stats
        assert stats.join_busy_seconds > 0
        assert stats.join_makespan_seconds > 0
        assert stats.worker_busy_seconds
        text = format_stats(stats, verbose=True)
        assert "join busy/makespan" in text


# ----------------------------------------------------------------------
# spatial_join + planner integration
# ----------------------------------------------------------------------
class TestSpatialJoinTracing:
    def test_sequential_trace_reconciles(self, small_pair):
        left, right = small_pair
        tracer = Tracer()
        result = spatial_join(left, right, mb(0.5), tracer=tracer)
        stats = result.stats
        assert stats.total_wall_seconds > 0
        assert stats.wall_seconds_by_phase == tracer.wall_by_phase()
        sections = tracer.spans_of_kind(KIND_SECTION)
        assert any(s.name == "spatial_join" for s in sections)
        # The section covers everything the stats report.
        outer = [s for s in sections if s.name == "spatial_join"][0]
        assert outer.wall_seconds == pytest.approx(stats.total_wall_seconds)
        assert outer.wall_seconds >= sum(stats.wall_seconds_by_phase.values())

    @pytest.mark.parametrize("method", ["pbsm", "auto"])
    def test_list_conversion_runs_under_an_ingest_span(self, small_pair, method):
        left, right = small_pair
        tracer = Tracer()
        spatial_join(list(left), list(right), mb(0.5), method=method, tracer=tracer)
        (root,) = [s for s in tracer.spans if s.name == "spatial_join"]
        ingests = [s for s in tracer.spans if s.name == "ingest"]
        assert ingests and all(s.kind == KIND_SECTION for s in ingests)
        # The lists become columns under the root, before anything runs.
        first = ingests[0]
        assert first.parent_id == root.span_id
        assert first.wall_seconds > 0
        assert first.t_start <= min(
            s.t_start for s in tracer.spans if s.name in ("plan", "pbsm")
        )

    def test_auto_records_plan_span_and_drift(self, small_pair):
        left, right = small_pair
        tracer = Tracer()
        from repro.planner.cache import PlannerCache

        result = spatial_join(
            left, right, mb(0.5), method="auto", cache=PlannerCache(),
            tracer=tracer,
        )
        plan_spans = tracer.spans_of_kind(KIND_PLAN)
        assert len(plan_spans) == 1
        assert plan_spans[0].tags["from_cache"] is False
        assert result.stats.planning_seconds == pytest.approx(
            plan_spans[0].wall_seconds
        )
        section_names = {s.name for s in tracer.spans_of_kind(KIND_SECTION)}
        assert {"profile", "enumerate"} <= section_names
        explain = result.plan.explain()
        assert "phase shares, estimated vs. measured wall:" in explain
        assert "drift" in explain

    def test_cache_hit_plans_without_reprofiling(self, small_pair):
        left, right = small_pair
        from repro.planner.cache import PlannerCache

        cache = PlannerCache()
        spatial_join(left, right, mb(0.5), method="auto", cache=cache)
        tracer = Tracer()
        result = spatial_join(
            left, right, mb(0.5), method="auto", cache=cache, tracer=tracer
        )
        plan_span = tracer.spans_of_kind(KIND_PLAN)[0]
        assert plan_span.tags["from_cache"] is True
        assert not any(
            s.name == "profile" for s in tracer.spans_of_kind(KIND_SECTION)
        )
        assert result.plan.from_cache is True

    def test_stats_to_dict_carries_timing_fields(self, small_pair):
        left, right = small_pair
        stats = spatial_join(left, right, mb(0.5)).stats
        record = stats_to_dict(stats)
        assert record["total_wall_seconds"] > 0
        assert "planning_seconds" in record
        assert "join_busy_seconds" in record
        assert record["wall_seconds_by_phase"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    @pytest.fixture
    def relations(self, tmp_path):
        from repro.datasets.fileio import save_relation

        left = random_kpes(400, seed=41, max_edge=0.05)
        right = random_kpes(400, seed=42, start_oid=10_000, max_edge=0.05)
        lp, rp = tmp_path / "l.csv", tmp_path / "r.csv"
        save_relation(left, lp)
        save_relation(right, rp)
        return str(lp), str(rp)

    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_join_trace_report_roundtrip(self, relations, tmp_path, capsys):
        lp, rp = relations
        trace_path = tmp_path / "t.jsonl"
        report_path = tmp_path / "report.json"
        assert self.run_cli(
            "join", lp, rp, "--trace", str(trace_path),
            "--report", str(report_path),
        ) == 0
        out = capsys.readouterr().out
        assert "total wall seconds" in out
        assert "wrote stats report" in out

        spans = read_trace(trace_path)  # validates every line
        report = json.loads(report_path.read_text())
        # The trace's phase totals are the report's, to the digit.
        assert phase_totals(spans) == report["wall_seconds_by_phase"]
        assert report["total_wall_seconds"] > 0

        assert self.run_cli("trace", str(trace_path), "--validate-only") == 0
        assert "schema valid" in capsys.readouterr().out
        assert self.run_cli("trace", str(trace_path), "--metrics") == 0
        out = capsys.readouterr().out
        assert "per-phase wall seconds:" in out
        assert "repro_trace_wall_seconds_total" in out

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 1}\n')
        assert self.run_cli("trace", str(bad)) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_loop_join_on_zipf_data_validates_and_matches_the_process_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without a shared-memory segment ``--workers`` runs the
        in-process loop: its trace validates, has task spans and no
        worker span, and its CSV is the process executor's."""
        from repro.datasets.fileio import save_relation
        from repro.datasets.synthetic import zipf_rects

        lp, rp = str(tmp_path / "l.csv"), str(tmp_path / "r.csv")
        save_relation(zipf_rects(6000, seed=5), lp)
        save_relation(zipf_rects(6000, seed=5, start_oid=10**6), rp)
        trace_path = tmp_path / "loop.jsonl"
        outs = {name: tmp_path / f"{name}.csv" for name in ("loop", "process")}
        with monkeypatch.context() as env:
            env.setenv("REPRO_DISABLE_SHM", "1")
            assert self.run_cli(
                "join", lp, rp, "--workers", "2", "--memory-mb", "0.25",
                "--trace", str(trace_path), "--out", str(outs["loop"]),
            ) == 0
        assert self.run_cli("trace", str(trace_path), "--validate-only") == 0
        assert "schema valid" in capsys.readouterr().out
        spans = read_trace(trace_path)
        assert worker_busy(spans) == {}
        assert any(span["kind"] == KIND_TASK for span in spans)
        assert self.run_cli(
            "join", lp, rp, "--workers", "2", "--memory-mb", "0.25",
            "--out", str(outs["process"]),
        ) == 0
        assert outs["loop"].read_bytes() == outs["process"].read_bytes()
        assert outs["loop"].stat().st_size > 0

    def test_workers_trace_has_worker_spans(self, tmp_path, capsys):
        from repro.datasets.fileio import save_relation

        # Seven chunks of a few ms each.  On the 400-record relations (two
        # chunks of well under a ms) one warm worker can take both before
        # the other wakes up: 34 of 300 runs on a 2-vCPU machine, against
        # 0 of 1000 at this size.
        lp, rp = str(tmp_path / "l.csv"), str(tmp_path / "r.csv")
        save_relation(random_kpes(3000, seed=41, max_edge=0.05), lp)
        save_relation(random_kpes(3000, seed=42, start_oid=10_000, max_edge=0.05), rp)
        trace_path = tmp_path / "tw.jsonl"
        assert self.run_cli(
            "join", lp, rp, "--workers", "2", "--memory-mb", "0.02",
            "--trace", str(trace_path), "--verbose",
        ) == 0
        out = capsys.readouterr().out
        assert "join busy/makespan" in out
        spans = read_trace(trace_path)
        workers = [span for span in spans if span["kind"] == KIND_WORKER]
        if not shm_enabled():
            # The in-process loop ran: it has no worker to report.
            assert workers == []
            return
        # Both warm workers ran chunks, and each is named by its pid.
        assert len(worker_busy(spans)) >= 2
        assert all(label.startswith("pid-") for label in worker_busy(spans))
