"""Zero-copy memory-mapped columnar stores over ``.rcd`` files.

:mod:`repro.io.rcd` defines the on-disk format and its header codec;
this module is the data half: the builder (:func:`write_rcd`) and
:class:`MappedColumnarStore`, which opens a built file as *live columnar
arrays* via ``np.memmap`` — a header read plus one mapping, O(ms)
regardless of cardinality, no per-record Python work at all.

:meth:`MappedColumnarStore.relation` (what :func:`open_relation` and
``load_relation("x.rcd")`` return) is a
:class:`~repro.kernels.columnar.ColumnarRelation` whose columns *are*
the file pages, carrying its store and the header's fingerprint and
``sorted_by_xl`` flag: every kernel, the parallel shm packer and serve's
dataset pinning consume the mapping with zero copies and zero tuple
building, and tuple-based code paths (scalar engines, validators) read
it as a lazy ``Sequence[KPE]`` that only converts the records they
touch.

The mapping is strictly read-only: the ``memmap`` is opened ``mode="r"``
and every column view inherits ``writeable=False``, so an accidental
in-place mutation of what looks like a scratch array raises
``ValueError`` instead of silently corrupting the dataset on disk.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.io.rcd import (
    RcdHeader,
    dataset_fingerprint,
    pack_header,
    parse_header,
    read_header,
)
from repro.kernels.columnar import ColumnarRelation, invalid_row

PathLike = Union[str, Path]


def write_rcd(
    kpes: Sequence[Tuple],
    path: PathLike,
    fingerprint: Optional[str] = None,
) -> RcdHeader:
    """Build *kpes* into an ``.rcd`` file with vectorized validation.

    The header of :func:`repro.io.rcd.pack_header`, then the five
    little-endian columns; ``sorted_by_xl`` is detected.  Row order is
    preserved exactly, which is what keeps joins from the mapped store
    byte-identical to joins over the original sequence.
    """
    col = ColumnarRelation.from_kpes(kpes)
    n = col.n
    index = invalid_row(col, finite=True)
    if index is not None:
        raise ValueError(
            f"invalid MBR at row {index} "
            f"(oid={int(col.oid[index])}) cannot be built"
        )
    if fingerprint is None:
        fingerprint = getattr(kpes, "fingerprint", None) or dataset_fingerprint(
            kpes
        )
    sorted_by_xl = bool(np.all(col.xl[:-1] <= col.xl[1:])) if n > 1 else True
    if n:
        extent = (
            float(col.xl.min()),
            float(col.yl.min()),
            float(col.xh.max()),
            float(col.yh.max()),
        )
    else:
        extent = (0.0, 0.0, 0.0, 0.0)
    header_blob = pack_header(n, extent, fingerprint, sorted_by_xl)
    with open(path, "wb") as handle:
        handle.write(header_blob)
        handle.write(col.oid.astype("<i8", copy=False).tobytes())
        for column in (col.xl, col.yl, col.xh, col.yh):
            handle.write(column.astype("<f8", copy=False).tobytes())
    return parse_header(header_blob, path)


class MappedColumnarStore:
    """An ``.rcd`` file opened as read-only columnar arrays.

    Open cost is a 4 KiB header read plus one ``np.memmap`` — the column
    data is paged in lazily by the OS as kernels touch it, and is shared
    between every process that maps the same file.
    """

    __slots__ = ("path", "header", "_buffer", "_columns")

    def __init__(
        self,
        path: Path,
        header: RcdHeader,
        buffer: Any,
        columns: Dict[str, Any],
    ) -> None:
        self.path = path
        self.header = header
        self._buffer: Optional[Any] = buffer
        self._columns: Dict[str, Any] = columns

    @classmethod
    def open(cls, path: PathLike) -> "MappedColumnarStore":
        """Map *path*, validating the header (raises ``RcdFormatError``)."""
        header = read_header(path)
        total = header.header_bytes + header.data_bytes
        if header.n:
            buffer = np.memmap(path, dtype=np.uint8, mode="r", shape=(total,))
        else:
            buffer = np.empty(0, dtype=np.uint8)
        columns: Dict[str, Any] = {}
        for name, dtype, offset, nbytes in header.columns:
            if header.n:
                columns[name] = buffer[offset : offset + nbytes].view(
                    np.dtype(dtype)
                )
            else:
                columns[name] = np.empty(0, dtype=np.dtype(dtype))
        return cls(Path(path), header, buffer, columns)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def relation(self) -> ColumnarRelation:
        """The mapped columns as a :class:`ColumnarRelation` (zero-copy).

        ``sorted_by_xl`` carries the flag detected at build time, so a
        pre-sorted dataset skips the columnar partitioner's one ``xl``
        order (``partition_ids(..., by_xl=True)``) — the only x-sort a
        join runs per input.  ``fingerprint`` is the header's, so the
        planner's caches hit without re-sampling, and ``store`` is this
        store.  The columns are read-only; kernels that need mutable
        rows copy (``sort_by_xl`` already does).
        """
        self._require_open()
        relation = ColumnarRelation(
            self._columns["oid"],
            self._columns["xl"],
            self._columns["yl"],
            self._columns["xh"],
            self._columns["yh"],
            sorted_by_xl=self.header.sorted_by_xl,
        )
        relation.store = self
        relation.fingerprint = self.header.fingerprint
        return relation

    def column(self, name: str) -> Any:
        """One mapped column by name (read-only array)."""
        self._require_open()
        return self._columns[name]

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.header.n

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this store's references to the mapping.

        The OS mapping itself is refcounted through the arrays: views
        handed out earlier (including live :class:`ColumnarRelation`
        columns) stay valid until their own references drop.  Using the
        *store* after ``close()`` raises.
        """
        self._buffer = None
        self._columns = {}

    @property
    def closed(self) -> bool:
        return self._buffer is None

    def _require_open(self) -> None:
        if self._buffer is None:
            raise ValueError(f"{self.path}: mapped store is closed")

    def __enter__(self) -> "MappedColumnarStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"MappedColumnarStore({str(self.path)!r}, n={self.n}, "
            f"fingerprint={self.header.fingerprint!r}, {state})"
        )


def open_relation(path: PathLike) -> ColumnarRelation:
    """Open an ``.rcd`` file as a join-ready, read-only
    :class:`ColumnarRelation` (its ``store`` is the mapping)."""
    return MappedColumnarStore.open(path).relation()


__all__ = [
    "MappedColumnarStore",
    "open_relation",
    "write_rcd",
]
