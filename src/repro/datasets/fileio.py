"""Reading and writing KPE relations from/to disk files.

Three formats:

* **CSV** — ``oid,xl,yl,xh,yh`` per line (with an optional header), the
  interchange format of the CLI;
* **NPY** — a ``(n, 5)`` float64 numpy array, the compact format for
  large generated datasets;
* **RCD** — the memory-mapped columnar dataset format
  (docs/datasets.md): built once via ``repro build`` or
  :func:`save_relation`, then opened zero-copy in O(ms) as a read-only
  :class:`~repro.kernels.columnar.ColumnarRelation` over the file pages
  instead of being parsed into tuples.

The CSV and NPY loaders validate records and reject inverted or
non-finite MBRs rather than ingesting silently broken geometry (the
file rule of :func:`~repro.kernels.columnar.invalid_row`); RCD
validates at *build* time and trusts its own header-checked files on
open — that asymmetry is the entire point of the format.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.rect import KPE
from repro.kernels.columnar import ColumnarRelation, invalid_row
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
    """Read a relation from CSV (header auto-detected).

    Parsed line by line, so a malformed line is named by its number;
    the MBRs are then validated over the columns.
    """
    kpes: List[KPE] = []
    line_nos: List[int] = []
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
            kpes.append(kpe)
            line_nos.append(line_no)
    # Coordinates only: a CSV oid may be any integer.
    coords = np.array([kpe[1:] for kpe in kpes], dtype=np.float64).reshape(-1, 4)
    row = invalid_row(ColumnarRelation(None, *coords.T), finite=True)
    if row is not None:
        raise ValueError(f"{path}:{line_nos[row]}: invalid MBR {tuple(kpes[row])}")
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
    array = array.astype(np.float64, copy=False)
    kpes = [
        KPE(int(o), xl, yl, xh, yh) for o, xl, yl, xh, yh in array.tolist()
    ]
    row = invalid_row(ColumnarRelation(*array.T), finite=True)
    if row is not None:
        raise ValueError(f"{path}: invalid MBR {tuple(kpes[row])}")
    return kpes


def load_relation(path: PathLike) -> Sequence[KPE]:
    """Load a relation, dispatching on the file extension.

    ``.csv``/``.npy`` return a fully parsed ``List[KPE]``.  ``.rcd``
    returns a zero-copy, read-only
    :class:`~repro.kernels.columnar.ColumnarRelation` over the file
    pages (an O(ms) open; ``.store`` is the mapping).
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
