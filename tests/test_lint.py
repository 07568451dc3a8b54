"""The repro-lint invariant engine.

Three layers are pinned here: (1) each shipped rule fires on a bad
snippet and stays silent on a good one — both the rule's own embedded
fixtures (via the engine self-test) and independent fixtures written
here, so a rule cannot "pass" by testing itself against a stale copy of
its own blind spot; (2) the engine mechanics — suppression comments,
syntax-error reporting, rule selection, file discovery, CLI exit codes;
(3) the repository itself: ``python -m tools.repro_lint src benchmarks
tests examples tools`` must exit 0, which is the self-check CI runs and
the reason the rules exist at all.  The retired rules' invariants are tested where they now
live (``docs/static_analysis.md``, "Retired rules").
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lint import (
    ALL_RULES,
    RULES_BY_ID,
    lint_source,
    run_lint,
    self_test,
)
from tools.repro_lint.engine import SYNTAX_RULE_ID

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_TARGETS = ["src", "benchmarks", "tests", "examples", "tools"]

# Short violations of two rules, for the engine and CLI mechanics: a
# discarded span (RPL011) and a blocking call in a coroutine (RPL007).
SPAN = 'tracer.span("boot")'
BLOCKING = "async def handle(a, b):\n    return spatial_join(a, b)\n"


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint_one(source, rule_id, path="module.py"):
    return lint_source(source, path=path, rules=[RULES_BY_ID[rule_id]])


def imported_modules(path):
    """Every module name *path* imports by its absolute name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


# ----------------------------------------------------------------------
# rule catalogue and embedded fixtures
# ----------------------------------------------------------------------
class TestCatalogue:
    def test_five_rules_shipped(self):
        assert [r.rule_id for r in ALL_RULES] == [
            "RPL007",
            "RPL008",
            "RPL009",
            "RPL010",
            "RPL011",
        ]

    def test_lint_imports_nothing_else_from_repro(self):
        for path in (REPO_ROOT / "tools/repro_lint").glob("*.py"):
            for module in imported_modules(path):
                assert module.split(".")[0] != "repro", f"{path.name} imports {module}"

    def test_package_ships_no_tooling(self):
        """The linter lives outside ``src/``: ``repro`` neither contains nor imports it."""
        assert importlib.util.find_spec("repro.lint") is None
        for path in (REPO_ROOT / "src/repro").rglob("*.py"):
            for module in imported_modules(path):
                assert module.split(".")[0] != "tools", f"{path} imports {module}"

    def test_every_rule_has_title_and_fixtures(self):
        for rule in ALL_RULES:
            assert rule.title, rule.rule_id
            assert rule.fixture_bad, rule.rule_id
            assert rule.fixture_good, rule.rule_id

    def test_self_test_passes(self):
        assert self_test() == []


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
    # Custody exists *somewhere* (try/finally), but an early return
    # above the try skips it.
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

    # A statement outside any try raises with the segment held: no CFG
    # edge reaches the exit, yet the segment leaks.
    RAISE_LEAK = (
        "from multiprocessing.shared_memory import SharedMemory\n"
        "def leak():\n"
        "    seg = SharedMemory(create=True, size=8)\n"
        "    seg.buf[0] = 1\n"
        "    seg.close()\n"
    )

    def test_statement_raising_outside_a_try_flagged(self):
        findings = lint_one(self.RAISE_LEAK, "RPL008")
        assert rules_of(findings) == ["RPL008"]
        assert findings[0].line == 3
        assert "line 4 runs outside any try" in findings[0].message

    # The repository's own segment constructor, leaking the same way.
    SEGMENT_LEAK = (
        "from repro.kernels.shm import ShmSegment\n"
        "def map_it(name):\n"
        "    segment = ShmSegment(name, create=True, size=8)\n"
        "    segment.buf[0] = 1\n"
        "    segment.close()\n"
    )

    def test_shm_segment_constructor_leak_flagged(self):
        findings = lint_one(self.SEGMENT_LEAK, "RPL008")
        assert rules_of(findings) == ["RPL008"]
        assert findings[0].line == 3
        assert "'segment'" in findings[0].message

    # The shape of SharedColumnarStore.create before its fix: untrack and
    # copy between the allocation and the hand-off to the constructor.
    CREATE = (
        "def create(cls, track):\n"
        "    segment = SharedMemory(create=True, size=8)\n"
        "{body}"
    )
    UNGUARDED = (
        "    if not track:\n"
        "        untrack(segment)\n"
        "    segment.buf[0] = 1\n"
        "    return cls(segment)\n"
    )
    GUARDED = (
        "    try:\n"
        "        if not track:\n"
        "            untrack(segment)\n"
        "        segment.buf[0] = 1\n"
        "        return cls(segment)\n"
        "    except BaseException:\n"
        "        segment.close()\n"
        "        segment.unlink()\n"
        "        raise\n"
    )

    def test_raise_between_allocation_and_hand_off_flagged(self):
        bad = self.CREATE.format(body=self.UNGUARDED)
        assert rules_of(lint_one(bad, "RPL008")) == ["RPL008"]
        good = self.CREATE.format(body=self.GUARDED)
        assert lint_one(good, "RPL008") == []

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(
                "def f(arrays):\n"
                "    with SharedColumnarStore.create(arrays) as store:\n"
                "        return store.manifest\n",
                id="with",
            ),
            pytest.param(
                "def f():\n"
                "    seg = SharedMemory(create=True, size=8)\n"
                "    try:\n"
                "        seg.buf[0] = 1\n"
                "    finally:\n"
                "        seg.close()\n"
                "        seg.unlink()\n",
                id="try-finally",
            ),
            pytest.param(
                "def open_segment():\n"
                "    seg = SharedMemory(create=True, size=8)\n"
                "    return seg\n",
                id="return",
            ),
            pytest.param(
                "_SEG = None\n"
                "def _attach_once(manifest):\n"
                "    global _SEG\n"
                "    _SEG = SharedColumnarStore.attach(manifest)\n",
                id="global",
            ),
            pytest.param(
                "class Holder:\n"
                "    def open(self):\n"
                "        self.seg = SharedMemory(create=True, size=8)\n",
                id="attribute",
            ),
        ],
    )
    def test_custody_shape_is_clean(self, source):
        assert lint_one(source, "RPL008") == []

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
# engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_suppression_comment_silences_one_rule(self):
        src = f"{SPAN}  # repro-lint: disable=RPL011\n"
        assert lint_source(src) == []

    def test_suppression_is_rule_specific(self):
        src = f"{SPAN}  # repro-lint: disable=RPL007\n"
        assert rules_of(lint_source(src)) == ["RPL011"]

    def test_suppression_accepts_lists(self):
        src = (
            f"{SPAN}  # repro-lint: disable=RPL007,RPL011\n"
            "async def handle(a, b):\n"
            "    return spatial_join(a, b)  # repro-lint: disable=all\n"
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
            "        create=True,  # repro-lint: disable=RPL008\n"
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
            "        create=True,  # repro-lint: disable=RPL007\n"
            "        size=8,\n"
            "    )\n"
            "    seg.buf[0] = 1\n"
        )
        assert rules_of(lint_source(src)) == ["RPL008"]

    def test_compound_header_comment_does_not_blanket_the_block(self):
        # Expansion applies to *simple* statements only; a disable on an
        # `if` header must not silence findings inside the block.
        src = f"if True:  # repro-lint: disable=RPL011\n    {SPAN}\n"
        assert rules_of(lint_source(src)) == ["RPL011"]

    def test_syntax_error_reported_as_rpl000(self):
        findings = lint_source("def broken(:\n")
        assert rules_of(findings) == [SYNTAX_RULE_ID]

    def test_findings_render_as_path_line_col(self):
        findings = lint_one(BLOCKING, "RPL007", path="pkg/mod.py")
        assert findings[0].render().startswith("pkg/mod.py:2:11: RPL007 ")

    def test_run_lint_on_directory(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text(SPAN)
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "sneaky.py").write_text(SPAN)
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "sneaky.py").write_text(SPAN)
        findings = run_lint([tmp_path], rules=[RULES_BY_ID["RPL011"]])
        assert [Path(f.path).name for f in findings] == ["bad.py"]

    def test_root_under_a_dot_path_is_linted(self, tmp_path, monkeypatch):
        # Only the part below the given root is filtered: a checkout in
        # ~/.work, or `../src` given from tests/, is not a hidden dir.
        src = tmp_path / ".work" / "src"
        src.mkdir(parents=True)
        (src / "bad.py").write_text(SPAN)
        (tmp_path / ".work" / "tests").mkdir()
        monkeypatch.chdir(tmp_path / ".work" / "tests")
        for root in (src, "../src"):
            findings = run_lint([root], rules=[RULES_BY_ID["RPL011"]])
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
            [sys.executable, "-m", "tools.repro_lint", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env={"PYTHONPATH": str(REPO_ROOT), "PATH": "/usr/bin:/bin"},
        )

    def test_repository_is_clean(self):
        """The CI self-check: the repo passes its own linter."""
        proc = self.run_cli(*LINT_TARGETS)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_violations_exit_1(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(SPAN)
        proc = self.run_cli(str(bad))
        assert proc.returncode == 1
        assert "RPL011" in proc.stdout
        assert "disable=RPLxxx" in proc.stderr

    def test_select_limits_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(f"{SPAN}\n{BLOCKING}")
        proc = self.run_cli("--select", "RPL007", str(bad))
        assert proc.returncode == 1
        assert "RPL007" in proc.stdout and "RPL011" not in proc.stdout

    def test_unknown_rule_is_usage_error(self, tmp_path):
        proc = self.run_cli("--select", "RPL999", str(tmp_path))
        assert proc.returncode == 2

    def test_no_paths_is_usage_error(self):
        proc = self.run_cli()
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        assert [line.split()[0] for line in proc.stdout.splitlines()] == [
            rule.rule_id for rule in ALL_RULES
        ]

    def test_self_test_flag(self):
        proc = self.run_cli("--self-test")
        assert proc.returncode == 0
        assert "self-test ok" in proc.stdout
