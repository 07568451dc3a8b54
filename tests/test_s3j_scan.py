"""Unit tests for S3J's synchronized heap-merge scan."""

from repro.core.rect import KPE
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.s3j.levelfile import build_level_files, sort_level_files
from repro.s3j.levels import assign_replicated
from repro.s3j.scan import ScanStats, partition_stream, scan_pairs
from repro.sfc.locational import curve_decoder, curve_encoder, is_ancestor_code

from tests.conftest import random_kpes

UNIT = Space(0.0, 0.0, 1.0, 1.0)
Z_ENC = curve_encoder("peano")
Z_DEC = curve_decoder("peano")
MAX_LEVEL = 6


def make_sorted_files(kpes, disk):
    entries = assign_replicated(kpes, UNIT, MAX_LEVEL, Z_ENC, CpuCounters())
    files, _ = build_level_files(entries, MAX_LEVEL, disk)
    return sort_level_files(files, disk, 1_000_000, CpuCounters())


class TestPartitionStream:
    def test_groups_by_code(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        a, b, c = (
            KPE(1, 0, 0, 0.1, 0.1),
            KPE(2, 0, 0, 0.1, 0.1),
            KPE(3, 0.9, 0.9, 1, 1),
        )
        level_file = [(5, a), (5, b), (9, c)]
        parts = list(partition_stream(level_file, 2, rel=0, decoder=Z_DEC, disk=disk))
        assert [(p.code, len(p.kpes)) for p in parts] == [(5, 2), (9, 1)]
        assert parts[0].level == 2
        assert parts[0].rel == 0

    def test_decodes_cell_coordinates(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        level_file = [(3, KPE(1, 0.6, 0.6, 0.9, 0.9))]
        (part,) = partition_stream(level_file, 1, 0, Z_DEC, disk)
        assert (part.ix, part.iy) == Z_DEC(3, 1)

    def test_level0_cell_is_origin(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        level_file = [(0, KPE(1, 0, 0, 1, 1))]
        (part,) = partition_stream(level_file, 0, 1, Z_DEC, disk)
        assert (part.ix, part.iy) == (0, 0)
        assert part.bytes == 20


class TestScanPairs:
    def _scan(self, left_kpes, right_kpes, memory=1_000_000):
        disk = SimulatedDisk(CostModel(page_size=200))
        files_left = make_sorted_files(left_kpes, disk)
        files_right = make_sorted_files(right_kpes, disk)
        counters = CpuCounters()
        stats = ScanStats()
        pairs = list(
            scan_pairs(
                files_left, files_right, MAX_LEVEL, Z_DEC, disk, counters, memory, stats
            )
        )
        return pairs, counters, stats

    def test_pairs_are_path_related(self):
        left = random_kpes(150, 1, max_edge=0.15)
        right = random_kpes(150, 2, start_oid=10_000, max_edge=0.15)
        pairs, _, _ = self._scan(left, right)
        assert pairs, "expected some partition pairs"
        for pl, pr in pairs:
            assert pl.rel == 0 and pr.rel == 1
            shallow, deep = (pl, pr) if pl.level <= pr.level else (pr, pl)
            assert is_ancestor_code(shallow.code, shallow.level, deep.code, deep.level)

    def test_each_cell_pair_joined_once(self):
        left = random_kpes(150, 3, max_edge=0.15)
        right = random_kpes(150, 4, start_oid=10_000, max_edge=0.15)
        pairs, _, _ = self._scan(left, right)
        keys = [
            (pl.level, pl.code, pr.level, pr.code) for pl, pr in pairs
        ]
        assert len(keys) == len(set(keys))

    def test_same_cell_pairs_present(self):
        k = KPE(1, 0.1, 0.1, 0.12, 0.12)
        j = KPE(2, 0.11, 0.11, 0.13, 0.13)
        pairs, _, _ = self._scan([k], [j])
        assert any(
            pl.level == pr.level and pl.code == pr.code for pl, pr in pairs
        )

    def test_heap_ops_counted(self):
        left = random_kpes(50, 5, max_edge=0.1)
        right = random_kpes(50, 6, start_oid=999, max_edge=0.1)
        _, counters, _ = self._scan(left, right)
        assert counters.heap_ops > 0

    def test_peak_stack_bytes_tracked(self):
        left = random_kpes(100, 7, max_edge=0.3)
        right = random_kpes(100, 8, start_oid=999, max_edge=0.3)
        _, _, stats = self._scan(left, right)
        assert stats.peak_stack_bytes > 0

    def test_memory_overrun_detected_with_tiny_budget(self):
        left = random_kpes(200, 9, max_edge=0.3)
        right = random_kpes(200, 10, start_oid=999, max_edge=0.3)
        _, _, stats = self._scan(left, right, memory=64)
        assert stats.memory_overruns > 0

    def test_empty_relation_yields_nothing(self):
        pairs, _, _ = self._scan(random_kpes(20, 11), [])
        assert pairs == []
