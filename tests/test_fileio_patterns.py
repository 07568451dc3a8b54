"""Tests for relation file I/O and the pattern generators."""

import math

import pytest

from repro.core.rect import KPE, valid_kpe
from repro.datasets.fileio import (
    load_relation,
    read_csv,
    read_npy,
    save_relation,
    write_csv,
    write_npy,
)
from repro.datasets.patterns import manhattan_grid, mixed_scale, radial_city

from tests.conftest import random_kpes


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        kpes = random_kpes(50, 1)
        path = tmp_path / "rel.csv"
        write_csv(kpes, path)
        loaded = read_csv(path)
        assert loaded == kpes

    def test_headerless(self, tmp_path):
        kpes = random_kpes(10, 2)
        path = tmp_path / "rel.csv"
        write_csv(kpes, path, header=False)
        assert read_csv(path) == kpes

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="expected 5 fields"):
            read_csv(path)

    def test_inverted_mbr_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0.9,0.1,0.2,0.5\n")
        with pytest.raises(ValueError, match="invalid MBR"):
            read_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,a,b,c,d\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_the_first_invalid_mbr_is_named_by_its_line(self, tmp_path):
        """The column check names the same line, in the same words, as a
        per-line check would: blank lines and the header count."""
        path = tmp_path / "bad.csv"
        path.write_text(
            "oid,xl,yl,xh,yh\n1,0.1,0.1,0.2,0.2\n\n"
            "2,0.1,inf,0.2,0.3\n3,0.9,0.1,0.2,0.5\n"
        )
        with pytest.raises(ValueError) as err:
            read_csv(path)
        assert str(err.value) == f"{path}:4: invalid MBR (2, 0.1, inf, 0.2, 0.3)"


class TestNpyRoundTrip:
    def test_round_trip(self, tmp_path):
        kpes = random_kpes(50, 3)
        path = tmp_path / "rel.npy"
        write_npy(kpes, path)
        assert read_npy(path) == kpes

    def test_the_first_invalid_mbr_is_named(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npy"
        rows = [[1, 0.1, 0.1, 0.2, 0.2], [2, 0.5, 0.1, 0.2, 0.3], [3, 0.1, math.nan, 0.2, 0.3]]
        np.save(path, np.array(rows))
        with pytest.raises(ValueError) as err:
            read_npy(path)
        assert str(err.value) == f"{path}: invalid MBR (2, 0.5, 0.1, 0.2, 0.3)"

    def test_wrong_shape_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npy"
        np.save(path, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="expected an"):
            read_npy(path)

    def test_oids_a_float64_cannot_hold_are_refused(self, tmp_path):
        """The table is float64: 2**53 + 1 would load back as 2**53, two
        records would share one oid and a self-join would report that
        pair four times.  ``.rcd`` and ``.csv`` carry the same input."""
        import numpy as np

        from repro import spatial_join

        kpes = [KPE(2**53 + 1, 0.1, 0.1, 0.2, 0.2), KPE(2**53, 0.5, 0.5, 0.6, 0.6)]
        for name in ("big.rcd", "big.csv"):
            save_relation(kpes, tmp_path / name)
            loaded = load_relation(tmp_path / name)
            assert list(loaded) == kpes
            result = spatial_join(loaded, loaded, 1 << 20)
            assert sorted(result.pairs) == [(2**53, 2**53), (2**53 + 1, 2**53 + 1)]
        for oid in (2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)):
            rows = [kpes[1], KPE(7, 0.3, 0.3, 0.4, 0.4), KPE(oid, 0.1, 0.1, 0.2, 0.2)]
            with pytest.raises(ValueError, match=rf"oid {oid} at row 2 "):
                save_relation(rows, tmp_path / "big.npy")
            assert not (tmp_path / "big.npy").exists()
        edge = [KPE(2**53, 0.1, 0.1, 0.2, 0.2), KPE(-(2**53), 0.5, 0.5, 0.6, 0.6)]
        write_npy(edge, tmp_path / "edge.npy")
        assert read_npy(tmp_path / "edge.npy") == edge
        # A table someone else wrote: a fractional or non-finite oid is
        # rejected by row, never truncated into a neighbour's.
        for bad in (7.5, 2.0**53 + 2, np.nan, np.inf):
            np.save(tmp_path / "odd.npy", np.array([[1, 0, 0, 1, 1], [bad, 0, 0, 1, 1]]))
            with pytest.raises(ValueError, match="row 1 has oid"):
                read_npy(tmp_path / "odd.npy")


class TestDispatch:
    def test_by_extension(self, tmp_path):
        kpes = random_kpes(20, 4)
        for name in ("rel.csv", "rel.npy"):
            path = tmp_path / name
            save_relation(kpes, path)
            assert load_relation(path) == kpes

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            save_relation([], tmp_path / "rel.wkt")
        with pytest.raises(ValueError, match="unsupported"):
            load_relation(tmp_path / "rel.wkt")


@pytest.mark.parametrize("gen", [manhattan_grid, radial_city, mixed_scale])
class TestPatternGenerators:
    def test_cardinality_and_validity(self, gen):
        kpes = gen(300, seed=5)
        assert len(kpes) == 300
        assert all(valid_kpe(k) for k in kpes)
        for k in kpes:
            assert 0.0 <= k.xl <= k.xh <= 1.0
            assert 0.0 <= k.yl <= k.yh <= 1.0

    def test_deterministic(self, gen):
        assert gen(100, seed=6) == gen(100, seed=6)

    def test_empty(self, gen):
        assert gen(0, seed=1) == []

    def test_start_oid(self, gen):
        kpes = gen(10, seed=7, start_oid=777)
        assert kpes[0].oid == 777


class TestPatternShapes:
    def test_manhattan_is_axis_parallel_thin(self):
        kpes = manhattan_grid(500, seed=8)
        thin = sum(
            1
            for k in kpes
            if min(k.xh - k.xl, k.yh - k.yl) < 0.01 < max(k.xh - k.xl, k.yh - k.yl)
        )
        assert thin > 400

    def test_radial_density_decays(self):
        kpes = radial_city(2000, seed=9)
        near = sum(
            1
            for k in kpes
            if math.hypot((k.xl + k.xh) / 2 - 0.5, (k.yl + k.yh) / 2 - 0.5) < 0.2
        )
        assert near > 1200

    def test_mixed_scale_has_both_regimes(self):
        kpes = mixed_scale(2000, seed=10)
        widths = [k.xh - k.xl for k in kpes]
        assert max(widths) > 0.1
        assert sorted(widths)[len(widths) // 2] < 0.01
