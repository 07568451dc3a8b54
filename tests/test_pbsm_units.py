"""Unit tests for PBSM's estimator, partitioner, repartitioning and dedup."""

import numpy as np
import pytest

from repro.core.rect import KPE, SIZEOF_KPE
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel
from repro.io.disk import SimulatedDisk
from repro.io.pagefile import PageFile
from repro.pbsm.dedup import sort_based_dedup
from repro.pbsm.estimator import estimate_partitions
from repro.pbsm.grid import TileGrid
from repro.pbsm.partitioner import partition_relation
from repro.kernels.columnar import ColumnarRelation
from repro.pbsm.repartition import choose_split, split_partition_ids

from tests.conftest import random_kpes
from tests.test_lint import REPO_ROOT, imported_modules

UNIT = Space(0.0, 0.0, 1.0, 1.0)


class TestEstimator:
    def test_formula_one(self):
        # (1000 + 1000) * 20 bytes = 40_000; M = 10_000 -> P = 4 (t=1)
        assert estimate_partitions(1000, 1000, 20, 10_000, t_factor=1.0) == 4

    def test_ceiling(self):
        assert estimate_partitions(1001, 1000, 20, 10_000, t_factor=1.0) == 5

    def test_t_factor_bumps_borderline(self):
        """The paper's 1.99 example: without t the formula gives P=2 and
        both partitions are unlikely to fit; with t > 1 we get 3."""
        n = 995  # (n + n) * 20 / 20_000 = 1.99
        assert estimate_partitions(n, n, 20, 20_000, t_factor=1.0) == 2
        assert estimate_partitions(n, n, 20, 20_000, t_factor=1.2) == 3

    def test_at_least_one_partition(self):
        assert estimate_partitions(1, 1, 20, 10**9) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_partitions(1, 1, 20, 0)
        with pytest.raises(ValueError):
            estimate_partitions(1, 1, 20, 100, t_factor=0)


class TestPartitioner:
    def _partition(self, kpes, n_partitions=4, side=4):
        disk = SimulatedDisk(CostModel(page_size=200))
        grid = TileGrid(UNIT, side, side, n_partitions)
        counters = CpuCounters()
        files, written = partition_relation(
            kpes, grid, disk, SIZEOF_KPE, counters, "T"
        )
        return files, written, grid, disk, counters

    def test_every_record_lands_somewhere(self):
        kpes = random_kpes(100, 1, max_edge=0.05)
        files, written, grid, _, _ = self._partition(kpes)
        assert sum(f.n_records for f in files) == written
        assert written >= len(kpes)
        stored = {k[0] for f in files for k in f.records}
        assert stored == {k.oid for k in kpes}

    def test_replication_for_straddling_rects(self):
        # one rect covering everything must appear in all partitions
        kpes = [KPE(1, 0.0, 0.0, 1.0, 1.0)]
        files, written, _, _, _ = self._partition(kpes, n_partitions=4)
        assert written == 4
        assert all(f.n_records == 1 for f in files)

    def test_writes_charged(self):
        kpes = random_kpes(200, 2)
        _, _, _, disk, _ = self._partition(kpes)
        assert disk.total_counters().pages_written > 0
        assert disk.total_counters().pages_read == 0  # input reads are free

    def test_structure_ops_counted(self):
        kpes = random_kpes(50, 3)
        _, _, _, _, counters = self._partition(kpes)
        assert counters.structure_ops >= len(kpes)

    def test_record_in_exactly_overlapping_partitions(self):
        kpes = [KPE(7, 0.1, 0.1, 0.15, 0.15)]
        files, _, grid, _, _ = self._partition(kpes)
        expected = grid.partitions_for_rect(kpes[0])
        holders = {pid for pid, f in enumerate(files) if f.n_records}
        assert holders == expected


class TestChooseSplit:
    def test_at_least_two(self):
        assert choose_split(100, 0, 1000, 1.0) == 2

    def test_scales_with_size(self):
        small = choose_split(5_000, 500, 1_000, 1.0)
        large = choose_split(50_000, 500, 1_000, 1.0)
        assert large > small

    def test_capped(self):
        assert choose_split(10**9, 0, 100, 1.0) <= 64

    def test_smaller_side_exhausting_memory_still_splits(self):
        k = choose_split(10_000, 999_999, 1_000_000, 1.0)
        assert k >= 2


def id_source(kpes):
    """A read-only run of row ids into *kpes*'s columns, as the driver
    carries a partition."""
    source = np.arange(len(kpes), dtype=np.int64)
    source.flags.writeable = False
    return source, ColumnarRelation.from_kpes(kpes)


class TestSplitPartitionIds:
    def test_split_preserves_records_with_replication(self):
        disk = SimulatedDisk(CostModel(page_size=200))
        kpes = random_kpes(80, 9, max_edge=0.1)
        source, columns = id_source(kpes)
        counters = CpuCounters()
        runs, subgrid = split_partition_ids(
            source, columns, 4, UNIT, disk, counters, 4
        )
        assert all(run.dtype == np.int64 and not run.flags.writeable for run in runs)
        stored = {int(columns.oid[i]) for run in runs for i in run}
        assert stored == {k.oid for k in kpes}
        # Every record once per distinct sub-partition its rectangle meets.
        assert sum(len(run) for run in runs) == sum(
            len(subgrid.partitions_for_rect(k)) for k in kpes
        )
        assert sum(len(run) for run in runs) >= len(kpes)
        # source must remain intact (it may be joined against again)
        assert source.tolist() == list(range(len(kpes)))

    def test_split_charges_read_and_writes(self):
        cost = CostModel(page_size=200)
        disk = SimulatedDisk(cost)
        source, columns = id_source(random_kpes(50, 10))
        runs, _ = split_partition_ids(
            source, columns, 2, UNIT, disk, CpuCounters(), 4
        )
        total = disk.total_counters()
        # The source in one request, each sub-partition through a
        # one-page buffer: a request per page.
        assert (total.read_requests, total.pages_read) == (
            1, cost.pages_for(len(source), SIZEOF_KPE)
        )
        written = sum(cost.pages_for(len(run), SIZEOF_KPE) for run in runs)
        assert written > 0
        assert (total.write_requests, total.pages_written) == (written, written)


class TestSortBasedDedup:
    def test_removes_cross_partition_duplicates(self):
        disk = SimulatedDisk(CostModel(page_size=100))
        f = PageFile(disk, 8, "cands")
        f.records.extend([(1, 2), (3, 4), (1, 2), (1, 2), (5, 6)])
        unique, removed = sort_based_dedup(f, 10_000, CpuCounters())
        assert sorted(unique) == [(1, 2), (3, 4), (5, 6)]
        assert removed == 2

    def test_empty(self):
        disk = SimulatedDisk()
        f = PageFile(disk, 8, "cands")
        unique, removed = sort_based_dedup(f, 1000, CpuCounters())
        assert unique == [] and removed == 0

    def test_charges_sort_io(self):
        disk = SimulatedDisk(CostModel(page_size=100))
        f = PageFile(disk, 8, "cands")
        f.records.extend((i, i) for i in range(500))
        disk.counters.clear()
        sort_based_dedup(f, 300, CpuCounters())
        assert disk.total_units() > 0


class TestPaperIoBoundary:
    """The engine's PBSM modules carry id arrays: no paged file, no
    external sort, and one module that knows the paper's charges."""

    PBSM_DIR = REPO_ROOT / "src/repro/pbsm"
    PAGED = ("repro.io.pagefile", "repro.io.extsort")

    def test_only_the_sort_mode_and_the_replay_import_paged_files(self):
        importers = {
            path.name
            for path in self.PBSM_DIR.glob("*.py")
            if any(module in self.PAGED for module in imported_modules(path))
        }
        assert importers <= {"dedup.py", "partitioner.py"}
        for name in ("join.py", "leaf.py", "repartition.py", "parallel.py"):
            assert name not in importers, name

    def test_only_paper_io_charges_the_disk(self):
        chargers = {
            path.name
            for path in self.PBSM_DIR.glob("*.py")
            if "charge_read(" in path.read_text() or "charge_write(" in path.read_text()
        }
        assert chargers == {"paper_io.py"}
