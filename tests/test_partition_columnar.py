"""PBSM's array partitioning against the scalar loop it replaced.

The driver partitions with one kernel
(:func:`~repro.kernels.assign.partition_runs`: every partition's id run)
and charges the paper's writes from the run lengths
(:func:`~repro.pbsm.paper_io.charge_partition`); the per-record loop it
replaced is :func:`scalar_partition_ids` here, spelt with
``partitions_for_rect`` and one one-page ``PageWriter`` per partition.
Everything the rest of the engine can observe must be equal between the
two: the ids of every partition, ``records_written``, the charged
``structure_ops`` and every ``SimulatedDisk`` request/page counter —
and, one level up, the pairs and ``JoinStats`` of a process-executor
``PBSM(workers=2)`` run against the simulated executor's in-process
loop.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phases import PHASE_PARTITION
from repro.core.space import Space
from repro.core.stats import CpuCounters
from repro.datasets.fileio import load_relation, save_relation
from repro.datasets.synthetic import zipf_rects
from repro.io.costmodel import CostModel, mb
from repro.io.disk import SimulatedDisk
from repro.io.pagefile import PageFile
from repro.kernels.assign import partition_runs
from repro.kernels.shm import shm_enabled
from repro.pbsm.grid import TileGrid
from repro.pbsm import parallel
from repro.pbsm.join import PBSM
from repro.pbsm.paper_io import charge_partition
from repro.pbsm.parallel import _chunk_tasks

from tests.conftest import HASH_ID, random_kpes
from tests.test_boundary_ownership import lattice_rects

needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs platform shared memory"
)

UNIT = Space(0.0, 0.0, 1.0, 1.0)


def scalar_partition_ids(kpes, grid, disk, record_bytes, counters):
    """The per-record loop: every row id into every partition it overlaps."""
    files = [PageFile(disk, record_bytes) for _ in range(grid.n_partitions)]
    writers = [file.writer(buffer_pages=1) for file in files]
    written = 0
    for i, kpe in enumerate(kpes):
        pids = grid.partitions_for_rect(kpe)
        counters.structure_ops += len(pids) + 1
        for pid in pids:
            writers[pid].write(i)
        written += len(pids)
    for writer in writers:
        writer.close()
    return [file.records for file in files], written


def partition_ids_observed(kpes, grid, *, scalar):
    """Everything observable about one id partitioning."""
    disk = SimulatedDisk(CostModel())
    counters = CpuCounters()
    with disk.phase(PHASE_PARTITION):
        if scalar:
            per_partition, written = scalar_partition_ids(kpes, grid, disk, 20, counters)
        else:
            runs = partition_runs(kpes, grid, counters)
            charge_partition(disk, runs, 20)
            per_partition = [run.tolist() for run in runs]
            written = sum(map(len, per_partition))
    for ids in per_partition:
        assert all(type(i) is int for i in ids)
    return {
        "ids": per_partition,
        "written": written,
        "structure_ops": counters.structure_ops,
        "disk": disk.counters,
    }


def assert_vector_equals_scalar(kpes, grid):
    vector = partition_ids_observed(kpes, grid, scalar=False)
    scalar = partition_ids_observed(kpes, grid, scalar=True)
    assert vector == scalar
    return vector


def big_rects(n, seed):
    """Every rectangle spans several tiles of an 8x8 grid."""
    return [
        (k.oid, k.xl * 0.6, k.yl * 0.6, k.xl * 0.6 + 0.3 + k.xh % 0.1, k.yl * 0.6 + 0.35)
        for k in random_kpes(n, seed)
    ]


def points_and_slivers(n, seed):
    """Zero-extent MBRs, half of them exactly on tile edges of a 4x4 grid."""
    out = []
    for k in random_kpes(n, seed, max_edge=0.4):
        x = round(k.xl * 4) / 4 if k.oid % 2 else k.xl
        y = round(k.yl * 4) / 4 if k.oid % 4 < 2 else k.yl
        if k.oid % 3 == 0:
            out.append((k.oid, x, y, x, y))  # point
        elif k.oid % 3 == 1:
            out.append((k.oid, x, y, max(x, min(1.0, k.xh)), y))  # horizontal sliver
        else:
            out.append((k.oid, x, y, x, max(y, min(1.0, k.yh))))  # vertical sliver
    return out


WORKLOADS = {
    "uniform": (lambda: random_kpes(700, seed=5, max_edge=0.05), 8, 6),
    "zipf": (lambda: zipf_rects(900, seed=3, grid=8, mean_edge=0.02), 8, 7),
    "all_multi_tile": (lambda: big_rects(300, seed=9), 8, 5),
    "single_partition": (lambda: random_kpes(400, seed=6, max_edge=0.2), 4, 1),
    # Everything inside one tile: every other partition file stays empty.
    "empty_partitions": (
        lambda: [(k.oid, k.xl / 9, k.yl / 9, k.xh / 9, k.yh / 9)
                 for k in random_kpes(300, seed=8, max_edge=0.01)],
        8,
        16,
    ),
    "points_and_slivers": (lambda: points_and_slivers(500, seed=4), 4, 3),
    # Below the records path's vectorisation floor: ids has no floor.
    "tiny": (lambda: random_kpes(7, seed=2, max_edge=0.5), 3, 2),
}


class TestVectorEqualsScalar:
    @HASH_ID
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_in_memory(self, name):
        make, nx, n_partitions = WORKLOADS[name]
        grid = TileGrid(UNIT, nx, nx, n_partitions)
        seen = assert_vector_equals_scalar(make(), grid)
        if name == "all_multi_tile":
            assert seen["written"] > 2 * 300
        if name == "empty_partitions":
            assert sum(1 for ids in seen["ids"] if not ids) >= n_partitions - 2

    @HASH_ID
    @pytest.mark.parametrize("name", ["uniform", "all_multi_tile", "points_and_slivers"])
    def test_rcd_mapped(self, name, tmp_path):
        make, nx, n_partitions = WORKLOADS[name]
        kpes = make()
        path = tmp_path / "rel.rcd"
        save_relation(kpes, path)
        mapped = load_relation(path)
        assert getattr(mapped, "columnar", None) is not None
        grid = TileGrid(UNIT, nx, nx, n_partitions)
        from_mapped = assert_vector_equals_scalar(mapped, grid)
        assert from_mapped == partition_ids_observed(kpes, grid, scalar=False)

    # One-page buffers only, the partitioning's; the id keeps its
    # parameter from when the replay partitioner took other sizes.
    @pytest.mark.parametrize("buffer_pages", [1])
    def test_flush_charges_follow_the_writer_buffer(self, buffer_pages):
        # Page size 4096 / 20-byte records = 204 per page; partition sizes
        # land on both sides of one and of several pages.
        grid = TileGrid(UNIT, 6, 6, 3)
        kpes = random_kpes(1500, seed=12, max_edge=0.04)
        assert_vector_equals_scalar(kpes, grid)

    def test_data_space_wider_than_the_data(self):
        # Grid space and data extent differ: clipping of out-of-space
        # corners must match tile_of_point's clamping.
        grid = TileGrid(Space(0.25, 0.25, 0.75, 0.75), 5, 5, 4)
        assert_vector_equals_scalar(random_kpes(600, seed=14, max_edge=0.3), grid)

    def test_empty_relation(self):
        grid = TileGrid(UNIT, 4, 4, 3)
        seen = assert_vector_equals_scalar([], grid)
        assert seen["ids"] == [[], [], []] and seen["written"] == 0

    @settings(max_examples=60, deadline=None)
    @given(
        rects=lattice_rects(),
        nx=st.sampled_from([1, 2, 3, 4, 6]),
        n_partitions=st.sampled_from([1, 2, 4, 5]),
    )
    def test_corners_exactly_on_tile_edges(self, rects, nx, n_partitions):
        grid = TileGrid(UNIT, nx, nx, min(n_partitions, nx * nx))
        assert_vector_equals_scalar(rects, grid)


class TestSpaceOfColumns:
    """``Space.of`` on columns folds exactly like the tuple loop."""

    CASES = {
        "plain": [(0, 0.1, 0.2, 0.3, 0.4), (1, -2.0, 0.5, 0.0, 7.0)],
        "infinite": [(0, float("-inf"), 0.0, 1.0, float("inf")), (1, 0.5, -3.0, 2.0, 1.0)],
        "nan_skipped": [
            (0, float("nan"), 0.2, 0.3, float("nan")),
            (1, 0.1, float("nan"), float("nan"), 0.9),
            (2, 0.4, 0.1, 0.6, 0.5),
        ],
        "negative_zero": [(0, 0.0, -0.0, 1.0, 1.0), (1, -0.0, 0.0, 0.5, 0.5)],
        "single_point": [(0, 0.5, 0.5, 0.5, 0.5)],
    }

    @staticmethod
    def columns(kpes):
        from repro.kernels.columnar import ColumnarRelation

        return ColumnarRelation.from_kpes(kpes)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_scalar_fold(self, name):
        kpes = self.CASES[name]
        other = random_kpes(5, seed=1)
        expected = Space.of(kpes, other)
        assert Space.of(self.columns(kpes), self.columns(other)) == expected
        assert Space.of(self.columns(kpes), other) == expected
        assert Space.of(kpes, self.columns(other)) == expected

    def test_all_nan_column_is_rejected_either_way(self):
        kpes = [(0, float("nan"), 0.0, 1.0, 1.0)]
        with pytest.raises(ValueError):
            Space.of(kpes)
        with pytest.raises(ValueError):
            Space.of(self.columns(kpes))

    def test_empty_sides(self):
        kpes = self.CASES["plain"]
        assert Space.of(self.columns([]), self.columns(kpes)) == Space.of([], kpes)
        assert Space.of(self.columns(kpes), []) == Space.of(kpes, [])
        assert Space.of(self.columns([]), self.columns([])) == Space(0.0, 0.0, 1.0, 1.0)

    def test_negative_zero_extent_partitions_identically(self):
        # -0.0 == 0.0, so the two spaces compare equal whichever zero the
        # reduction kept; the tile arithmetic must not tell them apart.
        kpes = self.CASES["negative_zero"] + random_kpes(80, seed=3, max_edge=0.2)
        by_loop = TileGrid(Space.of(kpes), 4, 4, 3)
        by_columns = TileGrid(Space.of(self.columns(kpes)), 4, 4, 3)
        assert by_loop.space == by_columns.space
        assert partition_ids_observed(kpes, by_columns, scalar=False) == (
            partition_ids_observed(kpes, by_loop, scalar=True)
        )

    def test_mapped_relation_uses_its_columns(self, tmp_path):
        kpes = random_kpes(300, seed=21)
        path = tmp_path / "rel.rcd"
        save_relation(kpes, path)
        assert Space.of(load_relation(path)) == Space.of(kpes)


LEFT = random_kpes(1200, seed=71, max_edge=0.03)
RIGHT = random_kpes(1200, seed=72, start_oid=10**6, max_edge=0.03)
MEMORY = mb(0.006)  # 10 partitions

#: ``sum(len(pickle.dumps(chunk)))`` over the LPT chunks of the
#: LEFT x RIGHT process join below, recorded on the commit before the
#: columnar partitioner (list-built CSR ids, plain-int task tuples).
#: ``stats.ipc_bytes_shipped`` itself also counts segment names, which
#: embed process ids and a per-process sequence number, so its task
#: payload share is the part that can be pinned across processes.
#: (Keyed, like the ids of the tests below, by the name the one dispatch
#: policy had while a second one existed: the floor list allows only a
#: few renames.)  That commit shipped 278 bytes: one task per partition
#: pair, 10 tasks.  The parallel run has repartitioned since: this join's
#: 7 repartitioning steps turn it into 17 leaves, so 17 five-int tasks.
PARENT_TASK_PAYLOAD_BYTES = {"static": 403}


def shm_join(left, right):
    return PBSM(MEMORY, workers=2, internal="sweep_numpy", executor="process").run(
        left, right
    )


@needs_shm
class TestShmJoinUnchanged:
    # The id keeps the name this row had while the parallel driver took a
    # dedup mode and a dispatch policy.
    @pytest.mark.parametrize("row", ["rpm-static"])
    def test_equals_pickle_and_simulated(self, row):
        # (Every executor runs the same CSR id tasks; what the in-process
        # executors used to be — the records-loop reference — is pinned
        # in tests/parallel_pinned.json.)
        shm = shm_join(LEFT, RIGHT)
        assert shm.stats.executor == "process"
        other = PBSM(
            MEMORY, workers=2, internal="sweep_numpy", executor="simulated"
        ).run(LEFT, RIGHT)
        assert other.stats.ipc_bytes_shipped == 0  # id tasks, in-process: no pipe
        assert shm.pairs == other.pairs  # order included
        for field in (
            "cpu_by_phase",
            "io_units_by_phase",
            "sim_seconds_by_phase",
            "records_partitioned",
            "replicas_created",
            "duplicates_suppressed",
            "n_partitions",
            "peak_memory_bytes",
        ):
            assert getattr(shm.stats, field) == getattr(other.stats, field), field

    def test_mapped_inputs_equal_in_memory_inputs(self, tmp_path):
        paths = []
        for name, kpes in (("l", LEFT), ("r", RIGHT)):
            paths.append(tmp_path / f"{name}.rcd")
            save_relation(kpes, paths[-1])
        mapped = shm_join(load_relation(paths[0]), load_relation(paths[1]))
        listed = shm_join(LEFT, RIGHT)
        assert mapped.pairs == listed.pairs
        assert mapped.stats.cpu_by_phase == listed.stats.cpu_by_phase
        assert mapped.stats.io_units_by_phase == listed.stats.io_units_by_phase

    @pytest.mark.parametrize("policy", ["static"])
    def test_task_payload_bytes_equal_the_parent_commit(self, policy, monkeypatch):
        shipped = []

        def recording_chunks(tasks, n_chunks):
            chunks = _chunk_tasks(tasks, n_chunks)
            shipped.extend(chunks)
            return chunks

        monkeypatch.setattr(parallel, "_chunk_tasks", recording_chunks)
        result = shm_join(LEFT, RIGHT)
        assert shipped and result.stats.ipc_bytes_shipped > 0
        for chunk in shipped:
            for task in chunk:
                assert len(task) == 5, task
                assert all(type(field) is int for field in task), task
        payload = sum(len(pickle.dumps(c, pickle.HIGHEST_PROTOCOL)) for c in shipped)
        assert payload == PARENT_TASK_PAYLOAD_BYTES[policy]
