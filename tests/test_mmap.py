"""The ``.rcd`` persistent columnar format and its mapped stores.

Covers the format robustness contract (corrupt/truncated/mismatched
headers rejected with clear errors, read-only mapping semantics, the
writer's exact bytes), the zero-copy open path
(an opened file is a read-only ``ColumnarRelation`` that is also a
drop-in relation sequence, stored fingerprints hitting the planner
caches), and end-to-end join byte-identity from
mapped stores across the sequential and parallel (shm) engines.
"""

import struct

import pytest

from repro import spatial_join
from repro.core.rect import KPE
from repro.datasets import uniform_rects
from repro.datasets.fileio import load_relation, save_relation
from repro.io.costmodel import CostModel, mb
from repro.io.rcd import (
    RCD_HEADER_BYTES,
    RCD_MAGIC,
    RcdFormatError,
    pack_header,
    read_header,
)
from repro.planner.stats import relation_fingerprint


@pytest.fixture
def rcd_path(tmp_path):
    kpes = uniform_rects(2000, seed=11)
    path = tmp_path / "u.rcd"
    save_relation(kpes, path)
    return kpes, path


# ----------------------------------------------------------------------
# format robustness
# ----------------------------------------------------------------------
class TestFormatRobustness:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rcd"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * RCD_HEADER_BYTES)
        with pytest.raises(RcdFormatError, match="bad magic"):
            load_relation(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.rcd"
        path.write_bytes(RCD_MAGIC + b"\x00" * 4)
        with pytest.raises(RcdFormatError, match="truncated header"):
            read_header(path)

    def test_truncated_column_data_rejected(self, rcd_path, tmp_path):
        _, path = rcd_path
        clipped = tmp_path / "clipped.rcd"
        blob = path.read_bytes()
        clipped.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(RcdFormatError, match="truncated column data"):
            load_relation(clipped)

    def test_version_mismatch_rejected(self, rcd_path, tmp_path):
        _, path = rcd_path
        blob = bytearray(path.read_bytes())
        # version lives right after the 8-byte magic, little-endian u16
        struct.pack_into("<H", blob, 8, 99)
        future = tmp_path / "future.rcd"
        future.write_bytes(bytes(blob))
        with pytest.raises(RcdFormatError, match="version 99 is not supported"):
            load_relation(future)

    def test_corrupt_fingerprint_rejected(self, rcd_path, tmp_path):
        _, path = rcd_path
        blob = bytearray(path.read_bytes())
        header = read_header(path)
        assert header.fingerprint in bytes(blob[:RCD_HEADER_BYTES]).decode(
            "ascii", "replace"
        )
        offset = bytes(blob).index(header.fingerprint.encode("ascii"))
        blob[offset : offset + 4] = b"zzzz"
        bad = tmp_path / "badfp.rcd"
        bad.write_bytes(bytes(blob))
        with pytest.raises(RcdFormatError, match="corrupt content fingerprint"):
            read_header(bad)

    def test_invalid_mbr_rejected_at_build(self, tmp_path):
        inverted = [KPE(1, 0.5, 0.5, 0.1, 0.6)]  # xh < xl
        with pytest.raises(ValueError, match="invalid MBR"):
            save_relation(inverted, tmp_path / "inv.rcd")

    def test_header_roundtrip_and_extent(self, rcd_path):
        kpes, path = rcd_path
        header = read_header(path)
        assert header.n == len(kpes)
        assert header.extent == (
            min(k[1] for k in kpes),
            min(k[2] for k in kpes),
            max(k[3] for k in kpes),
            max(k[4] for k in kpes),
        )
        assert len(header.fingerprint) == 32

    def test_pack_header_rejects_bad_fingerprint(self):
        with pytest.raises(ValueError, match="32 hex chars"):
            pack_header(1, (0.0, 0.0, 1.0, 1.0), "abc", False)


# ----------------------------------------------------------------------
# the writer, byte for byte
# ----------------------------------------------------------------------
def test_a_small_file_is_exactly_these_bytes(tmp_path):
    """Header, column table and the five little-endian columns of two rows."""
    kpes = [KPE(7, 0.5, 0.25, 0.75, 1.0), KPE(-3, 0.125, 0.5, 0.25, 2.0)]
    path = tmp_path / "two.rcd"
    save_relation(kpes, path)
    fingerprint = relation_fingerprint(kpes)
    head = struct.pack(
        "<8sHHIq4d32sH",
        b"REPRORCD", 1, 0, 4096, 2,  # flags 0: xl descends
        0.125, 0.25, 0.75, 2.0,
        fingerprint.encode("ascii"), 5,
    )  # fmt: skip
    table = b"".join(
        struct.pack("<4s4sqq", name, dtype, 4096 + 16 * index, 16)
        for index, (name, dtype) in enumerate(
            [(b"oid", b"<i8"), (b"xl", b"<f8"), (b"yl", b"<f8"), (b"xh", b"<f8"), (b"yh", b"<f8")]
        )
    )
    columns = struct.pack("<2q", 7, -3) + struct.pack(
        "<8d", 0.5, 0.125, 0.25, 0.5, 0.75, 0.25, 1.0, 2.0
    )
    blob = path.read_bytes()
    assert blob[: len(head) + len(table)] == head + table
    assert blob[len(head) + len(table) : 4096] == b"\x00" * (4096 - len(head) - len(table))
    assert blob[4096:] == columns
    assert list(load_relation(path)) == kpes


# ----------------------------------------------------------------------
# mapped store semantics
# ----------------------------------------------------------------------
class TestMappedStore:
    def test_read_only_mapping_writes_fail_loudly(self, rcd_path):
        from repro.kernels.mmapstore import MappedColumnarStore

        _, path = rcd_path
        with MappedColumnarStore.open(path) as store:
            rel = store.relation()
            with pytest.raises(ValueError):
                rel.xl[0] = 99.0
            with pytest.raises(ValueError):
                rel.oid[0] = -1

    def test_a_mapped_column_is_a_plain_array_on_the_mapping(self, rcd_path):
        import mmap

        import numpy as np

        _, path = rcd_path
        rel = load_relation(path)
        for col in (rel.oid, rel.xl, rel.yl, rel.xh, rel.yh):
            # Not the memmap subclass: a gather pays no Python-level
            # __getitem__.
            assert type(col) is np.ndarray
            assert not col.flags.writeable
            bases = []
            base = col.base
            while base is not None:
                bases.append(base)
                base = getattr(base, "base", None)
            assert any(isinstance(b, np.memmap) for b in bases)
            assert any(isinstance(b, mmap.mmap) for b in bases)

    def test_closed_store_refuses_views(self, rcd_path):
        from repro.kernels.mmapstore import MappedColumnarStore

        _, path = rcd_path
        store = MappedColumnarStore.open(path)
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.relation()

    def test_repr_of_an_open_and_a_closed_store(self, rcd_path):
        from repro.kernels.mmapstore import MappedColumnarStore

        kpes, path = rcd_path
        store = MappedColumnarStore.open(path)
        assert f"n={len(kpes)}," in repr(store) and repr(store).endswith(", open)")
        store.close()
        assert f"n={len(kpes)}," in repr(store) and repr(store).endswith(", closed)")

    def test_mapped_relation_is_a_sequence(self, rcd_path):
        kpes, path = rcd_path
        rel = load_relation(path)
        assert len(rel) == len(kpes)
        assert rel[0] == kpes[0]
        assert rel[-1] == kpes[-1]
        assert rel[5:10] == list(kpes[5:10])
        assert rel[::97] == list(kpes[::97])
        assert list(rel) == list(kpes)
        assert rel.to_kpes() == list(kpes)

    def test_sorted_flag_detected(self, tmp_path):
        kpes = sorted(uniform_rects(300, seed=2), key=lambda k: k[1])
        path = tmp_path / "sorted.rcd"
        save_relation(kpes, path)
        rel = load_relation(path)
        assert rel.sorted_by_xl
        assert rel.columnar.sorted_by_xl

    def test_from_kpes_short_circuits_to_mapped_columns(self, rcd_path):
        from repro.kernels.columnar import ColumnarRelation

        _, path = rcd_path
        rel = load_relation(path)
        assert ColumnarRelation.from_kpes(rel) is rel.columnar

    def test_an_open_file_is_a_read_only_columnar_relation(self, rcd_path):
        import pickle

        from repro.kernels.columnar import ColumnarRelation
        from repro.kernels.mmapstore import MappedColumnarStore

        _, path = rcd_path
        rel = load_relation(path)
        assert type(rel) is ColumnarRelation
        assert rel.read_only and rel.mapped
        assert isinstance(rel.store, MappedColumnarStore)
        assert rel.fingerprint == read_header(path).fingerprint
        # The mapping stays in this process, as the oid objects do.
        copy = pickle.loads(pickle.dumps(rel))
        assert copy.store is None and not copy.mapped
        assert copy.fingerprint == rel.fingerprint and copy.to_kpes() == rel.to_kpes()
        rel.store.close()
        with pytest.raises(ValueError, match="closed"):
            rel.store.relation()
        assert not ColumnarRelation.from_kpes(list(rel)).mapped

    def test_empty_relation_roundtrip(self, tmp_path):
        path = tmp_path / "empty.rcd"
        save_relation([], path)
        rel = load_relation(path)
        assert len(rel) == 0
        assert list(rel) == []


# ----------------------------------------------------------------------
# planner integration
# ----------------------------------------------------------------------
class TestPlannerIntegration:
    def test_stored_fingerprint_matches_in_memory(self, rcd_path):
        from repro.planner.stats import relation_fingerprint

        kpes, path = rcd_path
        rel = load_relation(path)
        assert (
            relation_fingerprint(rel)
            == rel.fingerprint
            == relation_fingerprint(list(kpes))
        )

    def test_plan_cache_hits_across_representations(self, rcd_path):
        from repro.planner import plan_join
        from repro.planner.cache import PlannerCache

        kpes, path = rcd_path
        rel = load_relation(path)
        cache = PlannerCache()
        first = plan_join(rel, rel, mb(2.5), cache=cache)
        assert not first.from_cache
        again = plan_join(list(kpes), list(kpes), mb(2.5), cache=cache)
        assert again.from_cache

    def test_repeated_opens_plan_from_the_cache_without_profiling(
        self, rcd_path, monkeypatch
    ):
        from repro.planner import plan_join
        from repro.planner.cache import PlannerCache
        from repro.planner.stats import RelationProfile

        _, path = rcd_path
        cache = PlannerCache()
        plan_join(load_relation(path), load_relation(path), mb(2.5), cache=cache)
        profiled = []
        monkeypatch.setattr(
            RelationProfile, "build", classmethod(lambda cls, *a: profiled.append(a))
        )
        again = plan_join(load_relation(path), load_relation(path), mb(2.5), cache=cache)
        assert again.from_cache and profiled == []

    def test_explain_prices_mapped_ingest(self, rcd_path):
        from repro.planner import plan_join

        kpes, path = rcd_path
        rel = load_relation(path)
        mapped_plan = plan_join(rel, rel, mb(2.5))
        assert "mapped open" in mapped_plan.explain()
        assert "re-parse would be" in mapped_plan.explain()
        parsed_plan = plan_join(list(kpes), list(kpes), mb(2.5))
        assert "mapped open" not in parsed_plan.explain()

    def test_cost_model_ingest_amortization(self):
        cost = CostModel()
        n = 1_000_000
        assert cost.ingest_seconds(n, mapped=True) == cost.mmap_open_seconds
        assert cost.ingest_seconds(n, mapped=False) == pytest.approx(
            n * cost.parse_record_seconds
        )
        assert cost.ingest_seconds(n, mapped=False) > 100 * cost.ingest_seconds(
            n, mapped=True
        )


# ----------------------------------------------------------------------
# join byte-identity from mapped stores
# ----------------------------------------------------------------------
class TestJoinIdentity:
    def test_sequential_join_identical(self, rcd_path):
        kpes, path = rcd_path
        rel = load_relation(path)
        memory = spatial_join(list(kpes), list(kpes), mb(2.5), method="pbsm")
        mapped = spatial_join(rel, rel, mb(2.5), method="pbsm")
        assert mapped.pairs == memory.pairs

    def test_parallel_shm_join_identical(self, rcd_path):
        kpes, path = rcd_path
        rel = load_relation(path)
        memory = spatial_join(
            list(kpes), list(kpes), mb(2.5), method="pbsm", workers=2
        )
        mapped = spatial_join(rel, rel, mb(2.5), method="pbsm", workers=2)
        assert mapped.pairs == memory.pairs

    def test_registry_pins_mapped_dataset_lazily(self, rcd_path):
        from repro.kernels.columnar import ColumnarRelation
        from repro.serve import DatasetRegistry

        _, path = rcd_path
        registry = DatasetRegistry()
        try:
            entry = registry.register_file("u", str(path))
            # the registry must NOT listify (re-parse) the mapping
            assert isinstance(entry.kpes, ColumnarRelation) and entry.kpes.mapped
            assert entry.n == len(entry.kpes)
        finally:
            registry.close()


# ----------------------------------------------------------------------
# CLI build subcommand
# ----------------------------------------------------------------------
class TestCliBuild:
    def test_build_from_pattern_then_join(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli.rcd"
        assert main(
            ["build", str(out), "--pattern", "uniform", "--n", "500"]
        ) == 0
        text = capsys.readouterr().out
        assert "built 500 MBRs" in text
        assert "fingerprint:" in text
        assert out.exists()
        assert main(["info", str(out)]) == 0
        assert "sorted_by_xl=no" in capsys.readouterr().out

    def test_info_reports_a_sorted_header(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sorted.rcd"
        args = ["build", str(out), "--pattern", "uniform", "--n", "500", "--sort"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        assert "sorted_by_xl=yes" in capsys.readouterr().out

    def test_build_from_file(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "src.csv"
        save_relation(uniform_rects(100, seed=1), src)
        out = tmp_path / "conv.rcd"
        assert main(["build", str(out), "--from", str(src)]) == 0
        assert read_header(out).n == 100

    def test_build_rejects_ambiguous_input(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(["build", str(tmp_path / "x.rcd")]) == 2
        )  # neither --from nor --pattern
        assert (
            main(
                [
                    "build",
                    str(tmp_path / "x.npy"),
                    "--pattern",
                    "uniform",
                ]
            )
            == 2
        )  # wrong suffix
