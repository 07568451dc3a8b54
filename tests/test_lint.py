"""The repro-lint invariant engine.

Three layers are pinned here: (1) each shipped rule fires on a bad
snippet and stays silent on a good one — both the rule's own embedded
fixtures (via the engine self-test) and independent fixtures written
here, so a rule cannot "pass" by testing itself against a stale copy of
its own blind spot; (2) the engine mechanics — suppression comments,
syntax-error reporting, rule selection, file discovery, CLI exit codes;
(3) the repository itself: ``python -m repro.lint src benchmarks tests``
must exit 0, which is the self-check CI runs and the reason the rules
exist at all.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    RULES_BY_ID,
    lint_source,
    run_lint,
    self_test,
)
from repro.lint.engine import SYNTAX_RULE_ID

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_TARGETS = ["src", "benchmarks", "tests"]


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint_one(source, rule_id, path="module.py"):
    return lint_source(source, path=path, rules=[RULES_BY_ID[rule_id]])


# ----------------------------------------------------------------------
# rule catalogue and embedded fixtures
# ----------------------------------------------------------------------
class TestCatalogue:
    def test_eleven_rules_shipped(self):
        assert [r.rule_id for r in ALL_RULES] == [
            "RPL002",
            "RPL003",
            "RPL004",
            "RPL005",
            "RPL006",
            "RPL007",
            "RPL008",
            "RPL009",
            "RPL010",
            "RPL011",
            "RPL012",
        ]

    def test_every_rule_has_title_and_fixtures(self):
        for rule in ALL_RULES:
            assert rule.title, rule.rule_id
            assert rule.fixture_bad, rule.rule_id
            assert rule.fixture_good, rule.rule_id

    def test_self_test_passes(self):
        assert self_test() == []


# ----------------------------------------------------------------------
# RPL002 — phase literals
# ----------------------------------------------------------------------
class TestPhaseLiteral:
    def test_flags_by_phase_subscript(self):
        bad = 'def f(stats):\n    return stats.cpu_by_phase["join"]\n'
        assert rules_of(lint_one(bad, "RPL002")) == ["RPL002"]

    def test_flags_by_phase_get(self):
        bad = 'def f(s):\n    return s.io_units_by_phase.get("repartition", 0)\n'
        assert rules_of(lint_one(bad, "RPL002")) == ["RPL002"]

    def test_flags_phase_keyword(self):
        bad = 'def f(timer):\n    timer.charge(1.0, phase="dedup")\n'
        assert rules_of(lint_one(bad, "RPL002")) == ["RPL002"]

    def test_flags_comparison_against_phase(self):
        bad = 'def f(span):\n    return span.phase == "sort"\n'
        assert rules_of(lint_one(bad, "RPL002")) == ["RPL002"]

    def test_flags_local_call_with_phase_param(self):
        bad = (
            "def charge(counters, phase):\n"
            "    return phase\n"
            "def f(counters):\n"
            '    return charge(counters, "partition")\n'
        )
        assert rules_of(lint_one(bad, "RPL002")) == ["RPL002"]

    def test_constant_from_core_phases_is_clean(self):
        good = (
            "from repro.core.phases import PHASE_JOIN\n"
            "def f(stats):\n"
            "    return stats.cpu_by_phase[PHASE_JOIN]\n"
        )
        assert lint_one(good, "RPL002") == []

    def test_non_phase_context_stays_legal(self):
        # argparse choices, dict keys of unrelated maps: "join" is a fine
        # word outside a phase position (this is cli.py's situation).
        good = (
            "def build(sub):\n"
            '    sub.add_parser("join")\n'
            '    return {"mode": "sort"}\n'
        )
        assert lint_one(good, "RPL002") == []

    def test_core_phases_itself_exempt(self):
        good = 'PHASE_JOIN = "join"\n'
        assert lint_one(good, "RPL002", path="src/repro/core/phases.py") == []


# ----------------------------------------------------------------------
# RPL003 — tile-hash drift
# ----------------------------------------------------------------------
class TestTileHashDrift:
    def test_flags_retyped_multiplier(self):
        bad = "H = 73856093\n"
        assert rules_of(lint_one(bad, "RPL003")) == ["RPL003"]

    def test_flags_shadow_constant(self):
        bad = "from repro.pbsm.grid import TILE_HASH_X as _x\nTILE_HASH_X = _x\n"
        assert rules_of(lint_one(bad, "RPL003")) == ["RPL003"]

    def test_flags_rederived_hash_expression(self):
        bad = (
            "from repro.pbsm.grid import TILE_HASH_X, TILE_HASH_Y\n"
            "def owner(tx, ty, n):\n"
            "    return ((tx * TILE_HASH_X) ^ (ty * TILE_HASH_Y)) % n\n"
        )
        assert rules_of(lint_one(bad, "RPL003")) == ["RPL003"]

    def test_grid_definition_site_exempt(self):
        source = "TILE_HASH_X = 73856093\nTILE_HASH_Y = 19349663\n"
        assert lint_one(source, "RPL003", path="src/repro/pbsm/grid.py") == []

    def test_rpm_replay_site_may_hash_but_not_retype(self):
        replay = (
            "from repro.pbsm.grid import TILE_HASH_X, TILE_HASH_Y\n"
            "def owners(tx, ty, n):\n"
            "    return ((tx * TILE_HASH_X) ^ (ty * TILE_HASH_Y)) % n\n"
        )
        path = "src/repro/kernels/rpm.py"
        assert lint_one(replay, "RPL003", path=path) == []
        retyped = "def owners(tx, ty, n):\n    return ((tx * 73856093) ^ (ty * 19349663)) % n\n"
        assert rules_of(lint_one(retyped, "RPL003", path=path)) == ["RPL003"]

    def test_calling_the_grid_api_is_clean(self):
        good = "def owner(grid, tx, ty):\n    return grid.partition_of_tile(tx, ty)\n"
        assert lint_one(good, "RPL003") == []


# ----------------------------------------------------------------------
# RPL004 — shm lifecycle
# ----------------------------------------------------------------------
class TestShmLifecycle:
    BAD = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def leak():\n"
        "    seg = SharedMemory(create=True, size=8)\n"
        "    seg.buf[0] = 1\n"
        "    seg.close()\n"  # not on the exception path
    )

    def test_flags_unprotected_binding(self):
        assert rules_of(lint_one(self.BAD, "RPL004")) == ["RPL004"]

    def test_with_statement_is_custody(self):
        good = (
            "def f(store_cls, arrays):\n"
            "    with store_cls.create(arrays) as store:\n"
            "        return store.manifest\n"
        )
        # `store_cls.create` is not a Store receiver, so make it explicit:
        good = good.replace("store_cls", "SharedColumnarStore")
        assert lint_one(good, "RPL004") == []

    def test_try_finally_is_custody(self):
        good = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f():\n"
            "    seg = SharedMemory(create=True, size=8)\n"
            "    try:\n"
            "        seg.buf[0] = 1\n"
            "    finally:\n"
            "        seg.close()\n"
            "        seg.unlink()\n"
        )
        assert lint_one(good, "RPL004") == []

    def test_ownership_escape_via_return_is_custody(self):
        good = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def open_segment():\n"
            "    seg = SharedMemory(create=True, size=8)\n"
            "    return seg\n"
        )
        assert lint_one(good, "RPL004") == []

    def test_global_pool_state_is_custody(self):
        good = (
            "_SEG = None\n"
            "def _pool_init(manifest):\n"
            "    global _SEG\n"
            "    _SEG = SharedColumnarStore.attach(manifest)\n"
        )
        assert lint_one(good, "RPL004") == []

    def test_attribute_assignment_is_custody(self):
        good = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "class Holder:\n"
            "    def open(self):\n"
            "        self.seg = SharedMemory(create=True, size=8)\n"
        )
        assert lint_one(good, "RPL004") == []


# ----------------------------------------------------------------------
# RPL005 — counter currency
# ----------------------------------------------------------------------
class TestCounterCurrency:
    def _project(self, extra_counter="", extra_param="", extra_price=""):
        return (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class CpuCounters:\n"
            "    intersection_tests: int = 0\n"
            f"{extra_counter}"
            "@dataclass\n"
            "class CostModel:\n"
            "    test_op_seconds: float = 2.0e-6\n"
            "    def cpu_seconds(self, counters):\n"
            "        return (counters.intersection_tests * self.test_op_seconds\n"
            f"{extra_price}"
            "        )\n"
            "    def cpu_seconds_from_counts(self, *, intersection_tests=0.0"
            f"{extra_param}):\n"
            "        return intersection_tests * self.test_op_seconds\n"
            "def format_stats(stats):\n"
            "    return str(stats.cpu_by_phase)\n"
        )

    def test_unpriced_counter_flagged_twice(self):
        src = self._project(extra_counter="    shiny_ops: int = 0\n")
        findings = lint_one(src, "RPL005")
        assert rules_of(findings) == ["RPL005"]
        messages = " ".join(f.message for f in findings)
        assert "not priced" in messages
        assert "cpu_seconds_from_counts" in messages

    def test_fully_wired_counter_is_clean(self):
        src = self._project(
            extra_counter="    shiny_ops: int = 0\n",
            extra_price="            + counters.shiny_ops * self.test_op_seconds\n",
            extra_param=", shiny_ops=0.0",
        )
        assert lint_one(src, "RPL005") == []

    def test_result_tallies_exempt(self):
        src = self._project(extra_counter="    results_reported: int = 0\n")
        assert lint_one(src, "RPL005") == []

    def test_silent_when_classes_absent(self):
        assert lint_one("x = 1\n", "RPL005") == []

    def test_real_codebase_is_current(self):
        findings = run_lint(
            [
                REPO_ROOT / "src/repro/core/stats.py",
                REPO_ROOT / "src/repro/io/costmodel.py",
                REPO_ROOT / "src/repro/core/report.py",
            ],
            rules=[RULES_BY_ID["RPL005"]],
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL006 — silent broad except
# ----------------------------------------------------------------------
class TestSilentExcept:
    def test_flags_swallowing_handler(self):
        bad = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert rules_of(lint_one(bad, "RPL006")) == ["RPL006"]

    def test_flags_bare_except(self):
        bad = "try:\n    x = 1\nexcept:\n    x = 2\n"
        assert rules_of(lint_one(bad, "RPL006")) == ["RPL006"]

    def test_reraise_is_fine(self):
        good = "try:\n    x = 1\nexcept Exception:\n    raise\n"
        assert lint_one(good, "RPL006") == []

    def test_logging_is_fine(self):
        good = (
            "import logging\n"
            "try:\n"
            "    x = 1\n"
            "except Exception as exc:\n"
            "    logging.warning('op failed: %s', exc)\n"
        )
        assert lint_one(good, "RPL006") == []

    def test_narrow_types_are_fine(self):
        good = "try:\n    x = 1\nexcept (OSError, ValueError):\n    x = 2\n"
        assert lint_one(good, "RPL006") == []


# ----------------------------------------------------------------------
# RPL007 — blocking engine calls inside async def
# ----------------------------------------------------------------------
class TestAsyncBlockingCall:
    def test_flags_direct_call_in_coroutine(self):
        bad = (
            "from repro import spatial_join\n"
            "async def handle(left, right):\n"
            "    return spatial_join(left, right, 1 << 20)\n"
        )
        assert rules_of(lint_one(bad, "RPL007")) == ["RPL007"]

    def test_flags_attribute_call_in_coroutine(self):
        bad = (
            "import repro.datasets.fileio as fileio\n"
            "async def ingest(path):\n"
            "    return fileio.load_relation(path)\n"
        )
        assert rules_of(lint_one(bad, "RPL007")) == ["RPL007"]

    def test_run_blocking_wrapper_is_fine(self):
        good = (
            "from repro import spatial_join\n"
            "from repro.serve.executor import run_blocking\n"
            "async def handle(left, right):\n"
            "    return await run_blocking(spatial_join, left, right, 1 << 20)\n"
        )
        assert lint_one(good, "RPL007") == []

    def test_nested_sync_def_is_fine(self):
        good = (
            "from repro import spatial_join\n"
            "async def handle(left, right):\n"
            "    def work():\n"
            "        return spatial_join(left, right, 1 << 20)\n"
            "    return work\n"
        )
        assert lint_one(good, "RPL007") == []

    def test_sync_functions_unaffected(self):
        good = (
            "from repro import spatial_join\n"
            "def handle(left, right):\n"
            "    return spatial_join(left, right, 1 << 20)\n"
        )
        assert lint_one(good, "RPL007") == []

    def test_serve_package_is_current(self):
        findings = run_lint(
            [REPO_ROOT / "src/repro/serve"],
            rules=[RULES_BY_ID["RPL007"]],
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL008 — segment custody on all paths
# ----------------------------------------------------------------------
class TestSegmentCustodyPaths:
    # The acceptance shape: custody exists *somewhere* (try/finally), so
    # RPL004 is satisfied — but an early return above the try leaks.
    BRANCH_LEAK = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def probe(flag):\n"
        "    seg = SharedMemory(create=True, size=8)\n"
        "    if flag:\n"
        "        return None\n"
        "    try:\n"
        "        seg.buf[0] = 1\n"
        "    finally:\n"
        "        seg.close()\n"
        "        seg.unlink()\n"
        "    return True\n"
    )

    def test_branch_leak_flagged(self):
        findings = lint_one(self.BRANCH_LEAK, "RPL008")
        assert rules_of(findings) == ["RPL008"]
        assert findings[0].line == 3  # the acquisition site

    def test_rpl004_is_blind_to_the_branch_leak(self):
        """The reason RPL008 exists: the syntactic rule passes this."""
        assert lint_one(self.BRANCH_LEAK, "RPL004") == []

    def test_exception_path_leak_flagged(self):
        bad = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f(x):\n"
            "    seg = SharedMemory(create=True, size=8)\n"
            "    try:\n"
            "        y = compute(x)\n"
            "    except ValueError:\n"
            "        return None\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "    return y\n"
        )
        assert rules_of(lint_one(bad, "RPL008")) == ["RPL008"]

    def test_early_return_inside_try_is_clean(self):
        good = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f(flag):\n"
            "    seg = SharedMemory(create=True, size=8)\n"
            "    try:\n"
            "        if flag:\n"
            "            return 0\n"
            "        return 1\n"
            "    finally:\n"
            "        seg.close()\n"
            "        seg.unlink()\n"
        )
        assert lint_one(good, "RPL008") == []

    def test_failed_acquisition_does_not_leak(self):
        """If the constructor raises, no segment exists: the exception
        edge must carry the *pre*-acquisition state into the handler
        (this is the `_platform_has_shm` probe shape in kernels/shm.py).
        """
        good = (
            "def probe():\n"
            "    from multiprocessing.shared_memory import SharedMemory\n"
            "    try:\n"
            "        seg = SharedMemory(create=True, size=8)\n"
            "        try:\n"
            "            seg.buf[0] = 1\n"
            "        finally:\n"
            "            seg.close()\n"
            "            seg.unlink()\n"
            "    except (ImportError, OSError):\n"
            "        return False\n"
            "    return True\n"
        )
        assert lint_one(good, "RPL008") == []

    def test_call_argument_escape_is_custody(self):
        good = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f(registry):\n"
            "    seg = SharedMemory(create=True, size=8)\n"
            "    registry.adopt(seg)\n"
        )
        assert lint_one(good, "RPL008") == []

    def test_close_on_one_branch_only_is_flagged(self):
        bad = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f(flag):\n"
            "    seg = SharedMemory(create=True, size=8)\n"
            "    if flag:\n"
            "        seg.close()\n"
            "        seg.unlink()\n"
        )
        assert rules_of(lint_one(bad, "RPL008")) == ["RPL008"]


# ----------------------------------------------------------------------
# RPL009 — lock discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    HEADER = (
        "import threading\n"
        "class Registry:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._datasets = {}\n"
        "    def get(self, name):\n"
        "        with self._lock:\n"
        "            return self._datasets[name]\n"
    )

    def test_unlocked_access_to_guarded_attr_flagged(self):
        bad = self.HEADER + (
            "    def put(self, name, ds):\n"
            "        self._datasets[name] = ds\n"
        )
        findings = lint_one(bad, "RPL009")
        assert rules_of(findings) == ["RPL009"]
        assert "_datasets" in findings[0].message

    def test_explicit_acquire_release_counts_as_held(self):
        good = self.HEADER + (
            "    def put(self, name, ds):\n"
            "        self._lock.acquire()\n"
            "        self._datasets[name] = ds\n"
            "        self._lock.release()\n"
        )
        assert lint_one(good, "RPL009") == []

    def test_conditional_acquire_is_not_protection(self):
        """Must-analysis: held on *all* paths or it does not count."""
        bad = self.HEADER + (
            "    def put(self, name, ds, fast):\n"
            "        if not fast:\n"
            "            self._lock.acquire()\n"
            "        self._datasets[name] = ds\n"
        )
        assert rules_of(lint_one(bad, "RPL009")) == ["RPL009"]

    def test_init_is_exempt(self):
        # __init__ runs before the object is shared; HEADER's own
        # unlocked `self._datasets = {}` in __init__ must not fire.
        assert lint_one(self.HEADER, "RPL009") == []

    def test_lock_order_inversion_flagged(self):
        bad = (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def one(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
            "    def two(self):\n"
            "        with self._b:\n"
            "            with self._a:\n"
            "                pass\n"
        )
        findings = lint_one(bad, "RPL009")
        assert rules_of(findings) == ["RPL009"]
        assert "inversion" in findings[0].message

    def test_out_of_scope_package_modules_skipped(self):
        bad = self.HEADER + (
            "    def put(self, name, ds):\n"
            "        self._datasets[name] = ds\n"
        )
        path = "src/repro/pbsm/parallel.py"
        assert lint_one(bad, "RPL009", path=path) == []

    def test_serve_and_planner_cache_are_clean(self):
        findings = run_lint(
            [REPO_ROOT / "src/repro/serve", REPO_ROOT / "src/repro/planner"],
            rules=[RULES_BY_ID["RPL009"]],
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPL010 — charge-once counter conservation
# ----------------------------------------------------------------------
class TestChargeOnce:
    def test_hoisted_counter_merged_per_iteration_flagged(self):
        bad = (
            "from repro.core.stats import CpuCounters\n"
            "def run(parts, total):\n"
            "    scratch = CpuCounters()\n"
            "    for part in parts:\n"
            "        total.add(scratch)\n"
        )
        findings = lint_one(bad, "RPL010")
        assert rules_of(findings) == ["RPL010"]
        assert "more than once" in findings[0].message

    def test_merge_skipped_on_one_branch_flagged(self):
        bad = (
            "from repro.core.stats import CpuCounters\n"
            "def run(total, flag):\n"
            "    scratch = CpuCounters()\n"
            "    scratch.intersection_tests += 1\n"
            "    if flag:\n"
            "        total.add(scratch)\n"
        )
        findings = lint_one(bad, "RPL010")
        assert rules_of(findings) == ["RPL010"]
        assert "never merges" in findings[0].message

    def test_counter_created_inside_loop_is_clean(self):
        good = (
            "from repro.core.stats import CpuCounters\n"
            "def run(parts, total):\n"
            "    for part in parts:\n"
            "        scratch = CpuCounters()\n"
            "        total.add(scratch)\n"
        )
        assert lint_one(good, "RPL010") == []

    def test_discard_scratch_never_merged_is_exempt(self):
        # The sanctioned stripe-split pattern: siblings charge shared
        # sort work into a throwaway counter that is never merged.
        good = (
            "from repro.core.stats import CpuCounters\n"
            "def replay(parts):\n"
            "    scratch = CpuCounters()\n"
            "    scratch.intersection_tests += len(parts)\n"
            "    return len(parts)\n"
        )
        assert lint_one(good, "RPL010") == []

    def test_straight_line_create_then_merge_is_clean(self):
        good = (
            "from repro.core.stats import CpuCounters\n"
            "def run(total):\n"
            "    scratch = CpuCounters()\n"
            "    total.add(scratch)\n"
        )
        assert lint_one(good, "RPL010") == []


# ----------------------------------------------------------------------
# RPL011 — span pairing
# ----------------------------------------------------------------------
class TestSpanPairing:
    def test_discarded_span_flagged(self):
        bad = (
            "def f(tracer):\n"
            '    tracer.span("join")\n'
            "    return 1\n"
        )
        findings = lint_one(bad, "RPL011")
        assert rules_of(findings) == ["RPL011"]
        assert "never records" in findings[0].message

    def test_span_not_exited_on_early_return_flagged(self):
        bad = (
            "def f(tracer, flag):\n"
            '    span = tracer.span("join")\n'
            "    if flag:\n"
            "        return 0\n"
            "    span.__exit__(None, None, None)\n"
            "    return 1\n"
        )
        assert rules_of(lint_one(bad, "RPL011")) == ["RPL011"]

    def test_with_statement_is_clean(self):
        good = (
            "def f(tracer, flag):\n"
            '    with tracer.span("join"):\n'
            "        if flag:\n"
            "            return 0\n"
            "    return 1\n"
        )
        assert lint_one(good, "RPL011") == []

    def test_exit_in_finally_is_clean(self):
        good = (
            "def f(tracer, work):\n"
            '    span = tracer.span("join")\n'
            "    try:\n"
            "        return work()\n"
            "    finally:\n"
            "        span.__exit__(None, None, None)\n"
        )
        assert lint_one(good, "RPL011") == []

    def test_trace_definition_site_exempt(self):
        bad = 'def f(tracer):\n    tracer.span("join")\n'
        path = "src/repro/obs/trace.py"
        assert lint_one(bad, "RPL011", path=path) == []

    def test_module_level_span_checked(self):
        bad = 'import tracer\ntracer.span("boot")\n'
        assert rules_of(lint_one(bad, "RPL011")) == ["RPL011"]


# ----------------------------------------------------------------------
# RPL012 — thread-pool workers and shared state
# ----------------------------------------------------------------------
class TestThreadExecutorShared:
    def test_unlocked_self_write_in_mapped_worker_flagged(self):
        bad = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class Engine:\n"
            "    def run(self, units):\n"
            "        def work(unit):\n"
            "            self.completed += 1\n"
            "            return unit\n"
            "        with ThreadPoolExecutor(max_workers=2) as pool:\n"
            "            return list(pool.map(work, units))\n"
        )
        findings = lint_one(bad, "RPL012")
        assert rules_of(findings) == ["RPL012"]
        assert "self.completed" in findings[0].message

    def test_worker_passed_alongside_pool_var_flagged(self):
        # The parallel driver's own dispatch shape: self._drain(pool, work, ...)
        bad = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class Engine:\n"
            "    def run(self, units):\n"
            "        def work(unit):\n"
            "            self.completed = unit\n"
            "            return unit\n"
            "        pool = ThreadPoolExecutor(max_workers=2)\n"
            "        return self._drain(pool, work, units)\n"
        )
        assert rules_of(lint_one(bad, "RPL012")) == ["RPL012"]

    def test_locked_write_is_clean(self):
        good = (
            "import threading\n"
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class Engine:\n"
            "    def run(self, units):\n"
            "        def work(unit):\n"
            "            with self._lock:\n"
            "                self.completed += 1\n"
            "            return unit\n"
            "        with ThreadPoolExecutor(max_workers=2) as pool:\n"
            "            return list(pool.map(work, units))\n"
        )
        assert lint_one(good, "RPL012") == []

    def test_return_value_worker_is_clean(self):
        good = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run(units):\n"
            "    def work(unit):\n"
            "        total = unit * 2\n"
            "        return total\n"
            "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
            "        return list(pool.map(work, units))\n"
        )
        assert lint_one(good, "RPL012") == []

    def test_process_pool_workers_not_in_scope(self):
        # Process workers get their own address space; writes are local.
        good = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "class Engine:\n"
            "    def run(self, units):\n"
            "        def work(unit):\n"
            "            self.completed = unit\n"
            "            return unit\n"
            "        with ProcessPoolExecutor(max_workers=2) as pool:\n"
            "            return list(pool.map(work, units))\n"
        )
        assert lint_one(good, "RPL012") == []

    def test_nonlocal_rebind_flagged(self):
        bad = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run(units):\n"
            "    done = 0\n"
            "    def work(unit):\n"
            "        nonlocal done\n"
            "        done = done + 1\n"
            "        return unit\n"
            "    with ThreadPoolExecutor(max_workers=2) as pool:\n"
            "        return list(pool.map(work, units))\n"
        )
        assert rules_of(lint_one(bad, "RPL012")) == ["RPL012"]


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_suppression_comment_silences_one_rule(self):
        src = "H = 73856093  # repro-lint: disable=RPL003\n"
        assert lint_source(src) == []

    def test_suppression_is_rule_specific(self):
        src = "H = 73856093  # repro-lint: disable=RPL006\n"
        assert rules_of(lint_source(src)) == ["RPL003"]

    def test_suppression_accepts_lists(self):
        src = (
            "T = S.io_units_by_phase[\"join\"]  # repro-lint: disable=RPL002,RPL003\n"
            "H = 19349663  # repro-lint: disable=all\n"
        )
        assert lint_source(src) == []

    def test_suppression_covers_multiline_statement_extent(self):
        """A disable comment on *any* physical line of a multi-line
        simple statement suppresses findings anchored to the statement's
        first line (the ast node's lineno)."""
        src = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def probe():\n"
            "    seg = SharedMemory(\n"
            "        create=True,  # repro-lint: disable=RPL004,RPL008\n"
            "        size=8,\n"
            "    )\n"
            "    seg.buf[0] = 1\n"
        )
        assert lint_source(src) == []

    def test_multiline_suppression_is_still_rule_specific(self):
        src = (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def probe():\n"
            "    seg = SharedMemory(\n"
            "        create=True,  # repro-lint: disable=RPL006\n"
            "        size=8,\n"
            "    )\n"
            "    seg.buf[0] = 1\n"
        )
        assert rules_of(lint_source(src)) == ["RPL004", "RPL008"]

    def test_compound_header_comment_does_not_blanket_the_block(self):
        # Expansion applies to *simple* statements only; a disable on an
        # `if` header must not silence findings inside the block.
        src = "if True:  # repro-lint: disable=RPL002\n    T = S.io_units_by_phase[\"join\"]\n"
        assert rules_of(lint_source(src)) == ["RPL002"]

    def test_syntax_error_reported_as_rpl000(self):
        findings = lint_source("def broken(:\n")
        assert rules_of(findings) == [SYNTAX_RULE_ID]

    def test_findings_render_as_path_line_col(self):
        findings = lint_one("T = S.io_units_by_phase[\"join\"]\n", "RPL002", path="pkg/mod.py")
        assert findings[0].render().startswith("pkg/mod.py:1:24: RPL002 ")

    def test_run_lint_on_directory(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("T = S.io_units_by_phase[\"join\"]\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "sneaky.py").write_text("T = S.io_units_by_phase[\"join\"]\n")
        findings = run_lint([tmp_path], rules=[RULES_BY_ID["RPL002"]])
        assert [Path(f.path).name for f in findings] == ["bad.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["no/such/dir"])


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def run_cli(self, *argv, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "repro.lint", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_repository_is_clean(self):
        """The CI self-check: the repo passes its own linter."""
        proc = self.run_cli(*LINT_TARGETS)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_violations_exit_1(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("T = S.io_units_by_phase[\"join\"]\n")
        proc = self.run_cli(str(bad))
        assert proc.returncode == 1
        assert "RPL002" in proc.stdout
        assert "disable=RPLxxx" in proc.stderr

    def test_select_limits_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("T = S.io_units_by_phase[\"join\"]\nH = 73856093\n")
        proc = self.run_cli("--select", "RPL003", str(bad))
        assert proc.returncode == 1
        assert "RPL003" in proc.stdout and "RPL002" not in proc.stdout

    def test_unknown_rule_is_usage_error(self, tmp_path):
        proc = self.run_cli("--select", "RPL999", str(tmp_path))
        assert proc.returncode == 2

    def test_no_paths_is_usage_error(self):
        proc = self.run_cli()
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule in ALL_RULES:
            assert rule.rule_id in proc.stdout

    def test_self_test_flag(self):
        proc = self.run_cli("--self-test")
        assert proc.returncode == 0
        assert "self-test ok" in proc.stdout


# ----------------------------------------------------------------------
# SARIF output, baseline burn-down, incremental cache
# ----------------------------------------------------------------------
class TestCiIntegration:
    run_cli = TestCli.run_cli

    BAD = "T = S.io_units_by_phase[\"join\"]\nH = 73856093\n"

    def test_sarif_output_structure(self, tmp_path):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        out = tmp_path / "lint.sarif"
        proc = self.run_cli(
            "--format", "sarif", "--output", str(out), str(bad)
        )
        assert proc.returncode == 1  # findings still fail the run
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        shipped = {r["id"] for r in driver["rules"]}
        assert {r.rule_id for r in ALL_RULES} <= shipped
        results = run["results"]
        assert sorted(r["ruleId"] for r in results) == ["RPL002", "RPL003"]
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("bad.py")
        assert loc["region"]["startLine"] in (1, 2)

    def test_clean_run_emits_valid_empty_sarif(self, tmp_path):
        import json

        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        proc = self.run_cli("--format", "sarif", str(ok))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["runs"][0]["results"] == []

    def test_write_then_apply_baseline(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        proc = self.run_cli("--write-baseline", str(baseline), str(bad))
        assert proc.returncode == 0
        assert "2 finding(s) written" in proc.stderr

        # grandfathered findings no longer fail the run ...
        proc = self.run_cli("--baseline", str(baseline), str(bad))
        assert proc.returncode == 0
        assert "2 grandfathered" in proc.stderr

        # ... but a *new* finding does, and is the only one reported.
        bad.write_text(self.BAD + "Y = 19349663\n")
        proc = self.run_cli("--baseline", str(baseline), str(bad))
        assert proc.returncode == 1
        assert proc.stdout.count("RPL003") == 1
        assert "RPL002" not in proc.stdout

    def test_checked_in_baseline_is_empty(self):
        """Satellite 2's contract: the repo lints clean with no
        grandfathered findings left to burn down."""
        import json

        doc = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        assert doc["findings"] == []

    def test_unreadable_baseline_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1\n")
        missing = tmp_path / "nope.json"
        proc = self.run_cli("--baseline", str(missing), str(bad))
        assert proc.returncode == 2

    def test_cache_hits_on_unchanged_files(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        (tmp_path / "ok.py").write_text("x = 1\n")
        cache = tmp_path / "cache.json"

        first = self.run_cli("--cache", str(cache), str(tmp_path))
        assert first.returncode == 1
        assert "cache: 0 hit(s), 2 miss(es)" in first.stderr

        second = self.run_cli("--cache", str(cache), str(tmp_path))
        assert second.returncode == 1
        assert "cache: 2 hit(s), 0 miss(es)" in second.stderr
        assert sorted(second.stdout.splitlines()) == sorted(
            first.stdout.splitlines()
        )

    def test_cache_invalidated_by_content_change(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("x = 1\n")
        cache = tmp_path / "cache.json"
        self.run_cli("--cache", str(cache), str(src))

        src.write_text("T = S.io_units_by_phase[\"join\"]\n")
        proc = self.run_cli("--cache", str(cache), str(src))
        assert proc.returncode == 1
        assert "1 miss(es)" in proc.stderr
        assert "RPL002" in proc.stdout

    def test_cached_findings_still_honour_suppressions(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("H = 73856093  # repro-lint: disable=RPL003\n")
        cache = tmp_path / "cache.json"
        assert self.run_cli("--cache", str(cache), str(src)).returncode == 0
        assert self.run_cli("--cache", str(cache), str(src)).returncode == 0
