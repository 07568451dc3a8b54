"""Reading and writing KPE relations from/to disk files.

Three formats:

* **CSV** — ``oid,xl,yl,xh,yh`` per line (with an optional header), the
  interchange format of the CLI;
* **NPY** — a ``(n, 5)`` float64 numpy array, the compact format for
  large generated datasets;
* **RCD** — the memory-mapped columnar dataset format
  (docs/datasets.md): built once via ``repro build`` or
  :func:`save_relation`, then opened zero-copy in O(ms) as a
  :class:`~repro.kernels.mmapstore.MappedRelation` instead of being
  parsed into tuples.

The CSV and NPY loaders validate records and reject inverted or
non-finite MBRs rather than ingesting silently broken geometry; RCD
validates at *build* time and trusts its own header-checked files on
open — that asymmetry is the entire point of the format.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.rect import KPE, valid_kpe
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.mmapstore import open_relation, write_rcd

#: float64 holds every integer up to this magnitude exactly — the range
#: of oids the ``.npy`` format (one float64 table) can carry.
NPY_MAX_OID = 2**53

PathLike = Union[str, Path]

CSV_HEADER = ("oid", "xl", "yl", "xh", "yh")


def write_csv(kpes: Sequence[Tuple], path: PathLike, header: bool = True) -> None:
    """Write a relation as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(CSV_HEADER)
        for k in kpes:
            writer.writerow([k[0], k[1], k[2], k[3], k[4]])


def read_csv(path: PathLike) -> List[KPE]:
    """Read a relation from CSV (header auto-detected)."""
    kpes: List[KPE] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if line_no == 1 and row[0].strip().lower() == "oid":
                continue
            if len(row) != 5:
                raise ValueError(f"{path}:{line_no}: expected 5 fields, got {len(row)}")
            try:
                kpe = KPE(
                    int(row[0]),
                    float(row[1]),
                    float(row[2]),
                    float(row[3]),
                    float(row[4]),
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            if not valid_kpe(kpe):
                raise ValueError(f"{path}:{line_no}: invalid MBR {tuple(kpe)}")
            kpes.append(kpe)
    return kpes


def write_npy(kpes: Sequence[Tuple], path: PathLike) -> None:
    """Write a relation as an ``(n, 5)`` float64 .npy array.

    Raises ``ValueError`` for an oid beyond ``2**53``: the float64 oid
    column would round it onto a neighbour and the loaded relation would
    hold two records with one oid.  ``.rcd`` and ``.csv`` carry any int64.
    """
    cols = ColumnarRelation.from_kpes(kpes)
    bad = (cols.oid > NPY_MAX_OID) | (cols.oid < -NPY_MAX_OID)
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(
            f"{path}: oid {int(cols.oid[row])} at row {row} is beyond 2**53 "
            "and does not survive the .npy float64 table; use .rcd or .csv"
        )
    np.save(path, np.column_stack((cols.oid, cols.xl, cols.yl, cols.xh, cols.yh)))


def read_npy(path: PathLike) -> List[KPE]:
    """Read a relation from an ``(n, 5)`` .npy array."""
    array = np.load(path)
    if array.ndim != 2 or array.shape[1] != 5:
        raise ValueError(f"{path}: expected an (n, 5) array, got {array.shape}")
    oid = array[:, 0]
    bad = ~((np.abs(oid) <= NPY_MAX_OID) & (oid == np.floor(oid)))
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(
            f"{path}: row {row} has oid {oid[row]!r}, not an integer a "
            "float64 holds exactly"
        )
    kpes: List[KPE] = []
    for row in array:
        kpe = KPE(int(row[0]), float(row[1]), float(row[2]), float(row[3]), float(row[4]))
        if not valid_kpe(kpe):
            raise ValueError(f"{path}: invalid MBR {tuple(kpe)}")
        kpes.append(kpe)
    return kpes


def load_relation(path: PathLike) -> Sequence[KPE]:
    """Load a relation, dispatching on the file extension.

    ``.csv``/``.npy`` return a fully parsed ``List[KPE]``.  ``.rcd``
    returns a zero-copy :class:`~repro.kernels.mmapstore.MappedRelation`
    (an O(ms) open).
    """
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return read_csv(path)
    if suffix == ".npy":
        return read_npy(path)
    if suffix == ".rcd":
        return open_relation(path)
    raise ValueError(
        f"unsupported relation format {suffix!r} (use .csv, .npy or .rcd)"
    )


def save_relation(kpes: Sequence[Tuple], path: PathLike) -> None:
    """Save a relation, dispatching on the file extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        write_csv(kpes, path)
    elif suffix == ".npy":
        write_npy(kpes, path)
    elif suffix == ".rcd":
        write_rcd(kpes, path)
    else:
        raise ValueError(
            f"unsupported relation format {suffix!r} (use .csv, .npy or .rcd)"
        )
