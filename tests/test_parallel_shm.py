"""The process executor of ``PBSM(workers=)`` over its shared-memory segment.

Four claims are pinned here: (1) the process executor's output is
byte-identical to the simulated executor, with identical simulated costs
and counters; (2) the pipe carries task tuples, the query's
configuration and manifests — well under a tenth of what the pickled
records alone would weigh; (3) both rungs of the degradation ladder
(``workers=1``, ``REPRO_DISABLE_SHM``) land on a byte-identical
in-process run, the second saying so once; (4) a failed chunk leaves
no result segment behind.  The store and CSR plumbing get their own
unit tests.
"""

import contextlib
import os
import pickle
import warnings
from concurrent.futures import Future

import pytest

from repro.core.stats import CpuCounters
from repro.io.costmodel import CostModel, mb
from repro.io.disk import SimulatedDisk
from repro.kernels.shm import (
    SEGMENT_PREFIX,
    SharedColumnarStore,
    columnar_arrays,
    shm_enabled,
)
from repro.pbsm.grid import TileGrid
from repro.pbsm import PBSM
from repro.pbsm.parallel import _WARNED_CLAMPS, LIBRARY_POOL
from repro.pbsm.partitioner import partition_csr, partition_relation

from tests.conftest import random_kpes

needs_shm = pytest.mark.skipif(
    not shm_enabled(), reason="needs platform shared memory"
)

LEFT = random_kpes(1200, seed=71, max_edge=0.03)
RIGHT = random_kpes(1200, seed=72, start_oid=10**6, max_edge=0.03)
MEMORY = mb(0.05)


def run(workers, *, executor="process", internal="sweep_numpy"):
    join = PBSM(MEMORY, workers=workers, internal=internal, executor=executor)
    return join.run(LEFT, RIGHT)


# ----------------------------------------------------------------------
# SharedColumnarStore
# ----------------------------------------------------------------------
@needs_shm
class TestSharedColumnarStore:
    def test_create_attach_round_trip(self):
        import numpy as np

        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
        }
        with SharedColumnarStore.create(arrays) as store:
            manifest = pickle.loads(pickle.dumps(store.manifest))
            other = SharedColumnarStore.attach(manifest)
            try:
                assert "a" in other and "b" in other
                assert (other["a"] == arrays["a"]).all()
                assert other["b"] == pytest.approx(arrays["b"])
                assert not other._owner and store._owner
            finally:
                other.close()

    def test_gather_copies(self):
        import numpy as np

        from repro.kernels.columnar import ColumnarRelation

        cols = ColumnarRelation.from_kpes(LEFT[:50])
        with SharedColumnarStore.create(columnar_arrays("L", cols)) as store:
            mapped = store.relation("L")  # views of the segment, as a worker's
            sub = mapped.take(np.array([3, 1, 3], dtype=np.int64))
            assert sub.oid.tolist() == [LEFT[3][0], LEFT[1][0], LEFT[3][0]]
            assert not sub.sorted_by_xl
            # A gathered relation is private: a kernel sorting (or
            # otherwise mutating) it must not write through to the mapped
            # segment.
            sub.xl[:] = -1.0
            assert store["L.xl"][3] == LEFT[3][1]
            assert mapped.take(slice(1, 4), sorted_by_xl=True).sorted_by_xl
            del mapped, sub  # or close() cannot unmap

    def test_unlink_is_idempotent(self):
        import numpy as np

        store = SharedColumnarStore.create({"x": np.zeros(4)})
        try:
            store.close()
        finally:
            store.unlink()
        store.unlink()  # second unlink must not raise

    def test_a_pieced_key_reads_back_as_the_concatenation(self):
        import numpy as np

        pieces = [
            np.arange(3, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.arange(10, 15, dtype=np.int64)[::2],  # a strided view
            np.empty(0, dtype=np.int64),
        ]
        whole = np.arange(4, dtype=np.float64)
        with SharedColumnarStore.create({"ids": pieces, "x": whole}) as store:
            assert store["ids"].dtype == np.int64
            assert store["ids"].tolist() == np.concatenate(pieces).tolist()
            assert store["x"].tolist() == whole.tolist()
            assert [n for _, _, n, _ in store.manifest[1]] == [6, 4]
        with SharedColumnarStore.create({"ids": [np.empty(0, dtype=np.int64)]}) as store:
            assert store["ids"].shape == (0,)

    def test_empty_arrays_supported(self):
        import numpy as np

        with SharedColumnarStore.create({"x": np.empty(0, dtype=np.int64)}) as store:
            assert store["x"].shape == (0,)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_a_create_that_fails_after_allocating_unlinks_its_segment(
        self, own_shm_segments, monkeypatch
    ):
        import numpy as np

        import repro.kernels.shm as shm

        map_views = shm._map_views

        def interrupted(segment, entries, views):
            map_views(segment, entries, views)
            raise KeyboardInterrupt  # as if during the column copy

        # A segment nobody else knows the name of yet: nothing else reclaims it.
        monkeypatch.setattr(shm, "_map_views", interrupted)
        with pytest.raises(KeyboardInterrupt):
            SharedColumnarStore.create({"a": np.arange(1000)})
        assert own_shm_segments() == set()

    def test_an_attach_that_fails_after_mapping_closes_its_handle(self, monkeypatch):
        import numpy as np

        import repro.kernels.shm as shm

        opened = []

        class RecordingSegment(shm.ShmSegment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(shm, "ShmSegment", RecordingSegment)
        with SharedColumnarStore.create({"a": np.arange(4)}) as store:
            name, entries = store.manifest
            too_long = ((key, dtype, n * 1000, off) for key, dtype, n, off in entries)
            with pytest.raises(TypeError):  # the view runs past the segment
                SharedColumnarStore.attach((name, tuple(too_long)))
            assert opened[1].buf is None  # closed: no mapping left behind


# ----------------------------------------------------------------------
# CSR partition indices
# ----------------------------------------------------------------------
class TestCsrPartitioning:
    def _partition(self, emit):
        from repro.core.space import Space

        grid = TileGrid(Space(0.0, 0.0, 1.0, 1.0), 4, 4, 4)
        disk = SimulatedDisk(CostModel())
        files, written = partition_relation(
            LEFT[:200], grid, disk, 20, CpuCounters(), "L", emit=emit
        )
        return files, written, disk

    def test_ids_mirror_records(self):
        rec_files, rec_written, rec_disk = self._partition("records")
        id_files, id_written, id_disk = self._partition("ids")
        assert id_written == rec_written
        # Same charged I/O, same file shapes — only the payload differs.
        assert id_disk.total_units() == rec_disk.total_units()
        for rec_file, id_file in zip(rec_files, id_files):
            records = rec_file.read_all()
            ids = id_file.read_all()
            assert [LEFT[i] for i in ids] == records

    def test_partition_csr_concatenates_in_order(self):
        id_files, _, _ = self._partition("ids")
        offsets, ids = partition_csr(id_files)
        assert offsets[0] == 0 and offsets[-1] == len(ids)
        for pid, file in enumerate(id_files):
            assert ids[offsets[pid]:offsets[pid + 1]] == file.read_all()

    def test_unknown_emit_rejected(self):
        with pytest.raises(ValueError):
            self._partition("columns")


# ----------------------------------------------------------------------
# executor parity
# ----------------------------------------------------------------------
@needs_shm
class TestShmExecutorParity:
    @pytest.mark.parametrize("internal", ["sweep_numpy", "sweep_trie"])
    def test_byte_identical_across_executors(self, internal, pair_decodes, no_oid_unboxing):
        sim = run(2, executor="simulated", internal=internal)
        proc = run(2, internal=internal)
        assert proc.stats.executor == "process"
        # The driver boxes no pair: every leaf returns row positions, in
        # this process and in a pool worker, read through each input's
        # oid column (no per-pair oid copy: ``no_oid_unboxing``).
        for result in (sim, proc):
            assert [len(column) for column in result.pairs.columns] == [len(LEFT), len(RIGHT)]
        assert proc.stats.n_results == len(proc) == len(sim.pairs)
        assert pair_decodes == []  # run and len() did not decode
        assert proc.pairs == sim.pairs  # same pairs, same order
        assert proc.stats.duplicates_suppressed == sim.stats.duplicates_suppressed
        assert proc.stats.cpu_by_phase == sim.stats.cpu_by_phase
        assert proc.stats.io_units_by_phase == sim.stats.io_units_by_phase
        assert proc.stats.sim_seconds == pytest.approx(sim.stats.sim_seconds)

    def test_shm_ships_far_fewer_bytes(self):
        # The pickled inputs bound from below what shipping records to
        # the workers would move (replicas and result pairs only add).
        records_bytes = len(pickle.dumps((LEFT, RIGHT), pickle.HIGHEST_PROTOCOL))
        shipped = run(2).stats.ipc_bytes_shipped
        assert shipped > 0
        assert records_bytes >= 10 * shipped

    def test_self_join_byte_identical(self):
        sim = PBSM(
            MEMORY, workers=2, internal="sweep_numpy", executor="simulated"
        ).run(LEFT, LEFT)
        proc = PBSM(
            MEMORY, workers=2, internal="sweep_numpy", executor="process"
        ).run(LEFT, LEFT)
        assert proc.pairs == sim.pairs

    def test_workers_1_spawns_no_pool_or_segment(self):
        one = run(1)
        two = run(2)
        # Degenerate case: in-process loop, no pool, no segments, no IPC.
        assert one.stats.ipc_bytes_shipped == 0
        assert one.stats.worker_busy_seconds == {}
        assert two.stats.ipc_bytes_shipped > 0
        assert len(two.stats.worker_busy_seconds) >= 1


# ----------------------------------------------------------------------
# a failed chunk must not strand the other chunks' result segments
# ----------------------------------------------------------------------
class FailingPool:
    """A stand-in pool that runs chunks in this process and fails one."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.submitted = 0

    def submit(self, fn, payload):
        self.submitted += 1
        future = Future()
        if self.submitted == self.fail_at:
            future.set_exception(OSError(28, "No space left on device"))
        else:
            future.set_result(fn(payload))
        return future


@needs_shm
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestResultSegmentCustody:
    def test_failed_chunk_leaks_no_result_segment(self, own_shm_segments, monkeypatch):
        pool = FailingPool(fail_at=3)
        monkeypatch.setattr(
            LIBRARY_POOL, "borrow", lambda workers: contextlib.nullcontext(pool)
        )
        join = PBSM(
            mb(0.006),  # 10 partitions: several chunks
            workers=2,
            internal="sweep_numpy",
            executor="process",
        )
        with pytest.raises(OSError, match="No space left"):
            join.run(LEFT, RIGHT)
        assert pool.submitted >= 3  # chunks did finish before the failure
        assert own_shm_segments() == set()


def _leave_a_segment():
    """Child process: create a segment-named file and exit without unlinking."""
    open(f"/dev/shm/{SEGMENT_PREFIX}{os.getpid()}_0_leaked", "wb").close()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestOwnShmSegments:
    """The leak check the tests above use sees this process tree only."""

    def test_reports_own_and_dead_childrens_segments_not_the_neighbours(
        self, own_shm_segments
    ):
        import multiprocessing

        assert own_shm_segments() == set()
        own = f"{SEGMENT_PREFIX}{os.getpid()}_0_own"
        # pid 1 is alive and no descendant of a test run.
        foreign = f"{SEGMENT_PREFIX}1_0_foreign"
        child = multiprocessing.get_context("spawn").Process(target=_leave_a_segment)
        created = [own, foreign]
        try:
            for name in created:
                open(f"/dev/shm/{name}", "wb").close()
            child.start()
            child.join(20.0)
            assert child.exitcode == 0
            created.append(f"{SEGMENT_PREFIX}{child.pid}_0_leaked")
            assert own_shm_segments() == {own, created[-1]}
        finally:
            for name in created:
                if os.path.exists(f"/dev/shm/{name}"):
                    os.unlink(f"/dev/shm/{name}")
        assert own_shm_segments() == set()


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------
def assert_degrades_to_the_loop():
    """``executor="process"`` without a segment: the in-process loop, said once."""
    assert not shm_enabled()
    for internal in ("sweep_numpy", "sweep_trie"):
        _WARNED_CLAMPS.clear()
        sim = run(2, executor="simulated", internal=internal)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = [run(2, internal=internal), run(2, internal=internal)]
        warned = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(warned) == 1 and "in-process loop" in warned[0]
        for result in degraded:
            assert result.pairs == sim.pairs  # same pairs, same order
            assert result.stats.cpu_by_phase == sim.stats.cpu_by_phase
            assert (
                result.stats.sim_seconds_by_phase == sim.stats.sim_seconds_by_phase
            )
            assert result.stats.executor == "simulated"
            assert result.stats.ipc_bytes_shipped == 0
            assert result.stats.worker_busy_seconds == {}  # no pool of any kind


class TestDegradation:
    def test_disable_env_degrades_to_the_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert_degrades_to_the_loop()

    def test_workers_1_stays_in_process_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        sim = run(1, executor="simulated", internal="sweep_trie")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = run(1, internal="sweep_trie")
        assert one.pairs == sim.pairs
        assert one.stats.executor == ""  # what ran: the sequential run
        assert one.stats.worker_busy_seconds == {}  # no pool of any kind


# ----------------------------------------------------------------------
# API surface
# ----------------------------------------------------------------------
class TestApi:
    @needs_shm
    def test_spatial_join_shared_memory(self):
        from repro import spatial_join

        sim = run(2, executor="simulated")
        result = spatial_join(LEFT, RIGHT, MEMORY, workers=2)
        assert result.pairs == sim.pairs
        assert result.stats.executor == "process"
        assert result.stats.ipc_bytes_shipped > 0

    @needs_shm
    def test_ipc_metrics_exported(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.observe_join(run(2).stats)
        text = registry.render()
        assert "repro_join_ipc_bytes_total" in text
        assert "repro_join_ipc_seconds" in text
        assert "transport=" not in text
