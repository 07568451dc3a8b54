"""Unit tests for S3J level assignment and level files."""


from repro.core.rect import KPE, SIZEOF_KPE
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.s3j.levelfile import (
    build_level_files,
    record_bytes_for_level,
    sort_level_files,
)
from repro.s3j.levels import assign_original, assign_replicated
from repro.sfc.locational import curve_encoder

from tests.conftest import random_kpes

UNIT = Space(0.0, 0.0, 1.0, 1.0)
Z = curve_encoder("peano")


class TestAssignOriginal:
    def test_one_entry_per_kpe(self):
        kpes = random_kpes(100, 1)
        counters = CpuCounters()
        entries = list(assign_original(kpes, UNIT, 8, Z, counters))
        assert len(entries) == len(kpes)
        assert {e[2][0] for e in entries} == {k.oid for k in kpes}

    def test_boundary_straddler_at_level_zero(self):
        k = KPE(1, 0.4999, 0.4999, 0.5001, 0.5001)
        entries = list(assign_original([k], UNIT, 8, Z, CpuCounters()))
        assert entries == [(0, 0, k)]

    def test_level_zero_code_not_computed(self):
        """Section 4.4.2: no locational code needed at level 0."""
        k = KPE(1, 0.4, 0.4, 0.6, 0.6)  # straddles the centre -> level 0
        counters = CpuCounters()
        list(assign_original([k], UNIT, 8, Z, counters))
        assert counters.code_computations == 0

    def test_deep_level_code_computed(self):
        k = KPE(1, 0.26, 0.26, 0.27, 0.27)
        counters = CpuCounters()
        entries = list(assign_original([k], UNIT, 8, Z, counters))
        assert counters.code_computations == 1
        assert entries[0][0] >= 5


class TestAssignReplicated:
    def test_at_most_four_entries_per_kpe(self):
        kpes = random_kpes(300, 2, max_edge=0.2)
        entries = list(assign_replicated(kpes, UNIT, 8, Z, CpuCounters()))
        per_oid = {}
        for level, code, kpe in entries:
            per_oid.setdefault(kpe[0], []).append((level, code))
        assert all(1 <= len(v) <= 4 for v in per_oid.values())
        # all copies of a KPE are on the same level with distinct codes
        for copies in per_oid.values():
            levels = {lv for lv, _ in copies}
            codes = [c for _, c in copies]
            assert len(levels) == 1
            assert len(codes) == len(set(codes))

    def test_small_straddler_moves_up(self):
        """The paper's Figure 9 point: a small rectangle straddling a cell
        boundary is replicated at its size level instead of sinking to
        level 0."""
        k = KPE(1, 0.4999, 0.4999, 0.5001, 0.5001)
        entries = list(assign_replicated([k], UNIT, 10, Z, CpuCounters()))
        assert all(level == 10 for level, _, _ in entries)
        assert len(entries) == 4  # straddles both axes

    def test_figure9_style_levels(self):
        """Rectangles of equal size get equal levels regardless of
        placement (r1 vs r2 of Figure 9)."""
        r1 = KPE(1, 0.24, 0.24, 0.26, 0.26)   # straddles a level-2 border
        r2 = KPE(2, 0.30, 0.30, 0.32, 0.32)   # inside one level-2 cell
        e1 = list(assign_replicated([r1], UNIT, 10, Z, CpuCounters()))
        e2 = list(assign_replicated([r2], UNIT, 10, Z, CpuCounters()))
        assert e1[0][0] == e2[0][0]

    def test_codes_charged_per_copy(self):
        k = KPE(1, 0.4999, 0.4999, 0.5001, 0.5001)
        counters = CpuCounters()
        list(assign_replicated([k], UNIT, 10, Z, counters))
        assert counters.code_computations == 4


class TestLevelHistogram:
    def test_replication_reduces_level0_population(self):
        """The observation that motivates Section 4.3: original S3J dumps
        many small rectangles into level 0; size separation empties it."""
        kpes = random_kpes(2000, 3, max_edge=0.02)
        def level0(entries):
            return sum(1 for level, _code, _kpe in entries if level == 0)

        orig = level0(assign_original(kpes, UNIT, 8, Z, CpuCounters()))
        repl = level0(assign_replicated(kpes, UNIT, 8, Z, CpuCounters()))
        assert repl < orig


class TestLevelFiles:
    def test_record_bytes_grow_with_level(self):
        assert record_bytes_for_level(0) == SIZEOF_KPE
        assert record_bytes_for_level(1) == SIZEOF_KPE + 1
        assert record_bytes_for_level(4) == SIZEOF_KPE + 1
        assert record_bytes_for_level(5) == SIZEOF_KPE + 2
        assert record_bytes_for_level(10) == SIZEOF_KPE + 3

    def test_build_level_files_routing(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        entries = [(0, 0, KPE(1, 0, 0, 1, 1)), (2, 9, KPE(2, 0, 0, 0.1, 0.1))]
        files, written = build_level_files(entries, 4, disk, "T")
        assert written == 2
        assert files[0].n_records == 1
        assert files[2].n_records == 1
        assert files[1].n_records == 0

    def test_build_charges_writes(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        kpes = random_kpes(100, 4)
        entries = assign_replicated(kpes, UNIT, 6, Z, CpuCounters())
        build_level_files(entries, 6, disk, "T")
        assert disk.total_counters().pages_written > 0

    def test_sort_level_files_orders_by_code(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        kpes = random_kpes(200, 5)
        entries = assign_replicated(kpes, UNIT, 6, Z, CpuCounters())
        files, _ = build_level_files(entries, 6, disk, "T")
        sorted_files = sort_level_files(files, 100_000, CpuCounters())
        for f in sorted_files[1:]:
            codes = [rec[0] for rec in f.records]
            assert codes == sorted(codes)

    def test_level_zero_not_resorted(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        entries = [(0, 0, KPE(i, 0.4, 0.4, 0.6, 0.6)) for i in range(20)]
        files, _ = build_level_files(entries, 3, disk, "T")
        disk.counters.clear()
        sorted_files = sort_level_files(files, 100_000, CpuCounters())
        assert sorted_files[0] is files[0]
        assert disk.total_units() == 0.0
