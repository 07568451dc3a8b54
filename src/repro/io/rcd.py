"""The ``.rcd`` on-disk columnar dataset format (build once, join many).

Every join today re-parses its inputs (CSV field splitting, ``.npy``
row validation) and rebuilds columnar arrays from Python tuples — for
TIGER-scale relations (CAL_ST ≈ 1.9M MBRs) that ingest dominates
end-to-end time and has to be paid again by every process that touches
the data.  Both Tsitsigkos & Mamoulis ("Parallel In-Memory Evaluation
of Spatial Joins") and the two-layer partitioning line of work assume a
preprocessed binary format whose build cost is amortised across many
joins; ``.rcd`` ("repro columnar dataset") is that format here.

Layout (version 1, little-endian)::

    [ header: RCD_HEADER_BYTES, zero-padded ]
      magic            8s   b"REPRORCD"
      version          H    1
      flags            H    bit 0: rows are ascending in xl
      header_bytes     I    4096 (columns start page-aligned)
      n                q    row count
      extent           4d   dataset MBR (xl, yl, xh, yh); zeros when empty
      fingerprint      32s  hex content fingerprint (planner cache key)
      n_columns        H    5
      column table     5 x (name 4s, dtype 4s, offset q, nbytes q)
    [ oid  int64[n]   ]
    [ xl   float64[n] ]
    [ yl   float64[n] ]
    [ xh   float64[n] ]
    [ yh   float64[n] ]

The column payload is the exact ``oid:int64 / xl,yl,xh,yh:float64``
structure-of-arrays layout every kernel consumes
(:class:`~repro.kernels.columnar.ColumnarRelation`), so an open is a
header read plus memory mapping — O(ms) regardless of cardinality — and
the mapped columns feed the join kernels without a single Python tuple
being built (see :mod:`repro.kernels.mmapstore`).

This module is the format definition and the header codec; the one
writer (:func:`~repro.kernels.mmapstore.write_rcd`) and the one reader
(:class:`~repro.kernels.mmapstore.MappedColumnarStore`) live in
:mod:`repro.kernels.mmapstore`.

Row order is preserved exactly as given to the builder, which is what
makes joins from a mapped store byte-identical to joins over the
original in-memory sequence.  The ``sorted_by_xl`` flag is *detected*,
never enforced, so pre-sorted datasets additionally skip the kernels'
x-sorts on open.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import List, Sequence, Tuple, Union

PathLike = Union[str, Path]

#: File magic: any mismatch means "not an .rcd file at all".
RCD_MAGIC = b"REPRORCD"

#: Format version this build of the library reads and writes.
RCD_VERSION = 1

#: Fixed header size; columns start at this (page-aligned) offset.
RCD_HEADER_BYTES = 4096

#: Header flag bit: rows are in ascending ``xl`` order.
FLAG_SORTED_BY_XL = 1

#: The version-1 column schema: name and numpy-style dtype code, in
#: on-disk order.  ``<i8``/``<f8`` are little-endian 8-byte integers and
#: floats — exactly the in-memory dtypes of ``ColumnarRelation``.
RCD_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("oid", "<i8"),
    ("xl", "<f8"),
    ("yl", "<f8"),
    ("xh", "<f8"),
    ("yh", "<f8"),
)

_FIXED_HEADER = struct.Struct("<8sHHIq4d32sH")
_COLUMN_ENTRY = struct.Struct("<4s4sqq")


class RcdFormatError(ValueError):
    """A file is not a readable ``.rcd`` dataset (and why, precisely)."""


class RcdHeader:
    """The decoded fixed header of an ``.rcd`` file."""

    __slots__ = (
        "version",
        "flags",
        "header_bytes",
        "n",
        "extent",
        "fingerprint",
        "columns",
    )

    def __init__(
        self,
        version: int,
        flags: int,
        header_bytes: int,
        n: int,
        extent: Tuple[float, float, float, float],
        fingerprint: str,
        columns: Tuple[Tuple[str, str, int, int], ...],
    ) -> None:
        self.version = version
        self.flags = flags
        self.header_bytes = header_bytes
        self.n = n
        self.extent = extent
        self.fingerprint = fingerprint
        #: ``(name, dtype, byte_offset, nbytes)`` per column, file order.
        self.columns = columns

    @property
    def sorted_by_xl(self) -> bool:
        return bool(self.flags & FLAG_SORTED_BY_XL)

    @property
    def data_bytes(self) -> int:
        """Total column payload bytes following the header."""
        return sum(nbytes for _, _, _, nbytes in self.columns)

    def column(self, name: str) -> Tuple[str, str, int, int]:
        for entry in self.columns:
            if entry[0] == name:
                return entry
        raise KeyError(name)


def _column_layout(n: int) -> Tuple[Tuple[str, str, int, int], ...]:
    """The version-1 column table for *n* rows."""
    entries: List[Tuple[str, str, int, int]] = []
    offset = RCD_HEADER_BYTES
    for name, dtype in RCD_COLUMNS:
        nbytes = 8 * n
        entries.append((name, dtype, offset, nbytes))
        offset += nbytes
    return tuple(entries)


def pack_header(
    n: int,
    extent: Tuple[float, float, float, float],
    fingerprint: str,
    sorted_by_xl: bool,
) -> bytes:
    """Encode the fixed header (exactly :data:`RCD_HEADER_BYTES` long)."""
    if len(fingerprint) != 32:
        raise ValueError(
            f"fingerprint must be 32 hex chars, got {len(fingerprint)}"
        )
    flags = FLAG_SORTED_BY_XL if sorted_by_xl else 0
    head = _FIXED_HEADER.pack(
        RCD_MAGIC,
        RCD_VERSION,
        flags,
        RCD_HEADER_BYTES,
        n,
        extent[0],
        extent[1],
        extent[2],
        extent[3],
        fingerprint.encode("ascii"),
        len(RCD_COLUMNS),
    )
    table = b"".join(
        _COLUMN_ENTRY.pack(
            name.encode("ascii"), dtype.encode("ascii"), offset, nbytes
        )
        for name, dtype, offset, nbytes in _column_layout(n)
    )
    blob = head + table
    return blob + b"\x00" * (RCD_HEADER_BYTES - len(blob))


def parse_header(blob: bytes, path: PathLike = "<bytes>") -> RcdHeader:
    """Decode and validate a header *blob* (raises :class:`RcdFormatError`)."""
    if len(blob) < _FIXED_HEADER.size:
        raise RcdFormatError(
            f"{path}: truncated header ({len(blob)} bytes, need at least "
            f"{_FIXED_HEADER.size}) — not a complete .rcd file"
        )
    (
        magic,
        version,
        flags,
        header_bytes,
        n,
        xl,
        yl,
        xh,
        yh,
        fingerprint_raw,
        n_columns,
    ) = _FIXED_HEADER.unpack_from(blob)
    if magic != RCD_MAGIC:
        raise RcdFormatError(
            f"{path}: bad magic {magic!r} (expected {RCD_MAGIC!r}) — "
            "not an .rcd dataset"
        )
    if version != RCD_VERSION:
        raise RcdFormatError(
            f"{path}: format version {version} is not supported by this "
            f"build (reads version {RCD_VERSION}); rebuild the dataset "
            "with `repro build`"
        )
    if header_bytes != RCD_HEADER_BYTES:
        raise RcdFormatError(
            f"{path}: header size {header_bytes} != {RCD_HEADER_BYTES}"
        )
    if n < 0:
        raise RcdFormatError(f"{path}: negative row count {n}")
    if n_columns != len(RCD_COLUMNS):
        raise RcdFormatError(
            f"{path}: {n_columns} columns (version {RCD_VERSION} has "
            f"exactly {len(RCD_COLUMNS)})"
        )
    if len(blob) < _FIXED_HEADER.size + n_columns * _COLUMN_ENTRY.size:
        raise RcdFormatError(
            f"{path}: truncated column table — not a complete .rcd file"
        )
    columns: List[Tuple[str, str, int, int]] = []
    for index in range(n_columns):
        name_raw, dtype_raw, offset, nbytes = _COLUMN_ENTRY.unpack_from(
            blob, _FIXED_HEADER.size + index * _COLUMN_ENTRY.size
        )
        name = name_raw.rstrip(b"\x00").decode("ascii")
        dtype = dtype_raw.rstrip(b"\x00").decode("ascii")
        expected_name, expected_dtype = RCD_COLUMNS[index]
        if name != expected_name or dtype != expected_dtype:
            raise RcdFormatError(
                f"{path}: column {index} is {name}:{dtype}, expected "
                f"{expected_name}:{expected_dtype}"
            )
        if offset < RCD_HEADER_BYTES or nbytes != 8 * n:
            raise RcdFormatError(
                f"{path}: column {name} layout (offset {offset}, "
                f"{nbytes} bytes) disagrees with row count {n}"
            )
        columns.append((name, dtype, offset, nbytes))
    try:
        fingerprint = fingerprint_raw.decode("ascii")
        int(fingerprint, 16)
    except (UnicodeDecodeError, ValueError) as exc:
        raise RcdFormatError(
            f"{path}: corrupt content fingerprint {fingerprint_raw!r}"
        ) from exc
    return RcdHeader(
        version, flags, header_bytes, n, (xl, yl, xh, yh), fingerprint, columns
    )


def read_header(path: PathLike) -> RcdHeader:
    """Read and validate the header of *path*, including the body length."""
    with open(path, "rb") as handle:
        blob = handle.read(RCD_HEADER_BYTES)
        header = parse_header(blob, path)
        handle.seek(0, 2)
        size = handle.tell()
    expected = RCD_HEADER_BYTES + header.data_bytes
    if size < expected:
        raise RcdFormatError(
            f"{path}: truncated column data ({size} bytes on disk, header "
            f"promises {expected}) — the build was interrupted; re-run "
            "`repro build`"
        )
    return header


def dataset_fingerprint(kpes: Sequence[Tuple]) -> str:
    """The content fingerprint stored in the header.

    This is *the planner's* relation fingerprint
    (:func:`repro.planner.stats.relation_fingerprint`), computed once at
    build time: a mapped open then returns the stored value, so profile
    and plan caches hit across in-memory and mapped representations of
    the same records without re-sampling.  (Function-local import: the
    planner package is heavyweight and this module loads at CLI start.)
    """
    from repro.planner.stats import relation_fingerprint

    return relation_fingerprint(kpes)


__all__ = [
    "FLAG_SORTED_BY_XL",
    "RCD_COLUMNS",
    "RCD_HEADER_BYTES",
    "RCD_MAGIC",
    "RCD_VERSION",
    "RcdFormatError",
    "RcdHeader",
    "dataset_fingerprint",
    "pack_header",
    "parse_header",
    "read_header",
]
