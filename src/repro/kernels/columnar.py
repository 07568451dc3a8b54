"""Columnar (structure-of-arrays) storage for KPE relations.

The tuple representation ``(oid, xl, yl, xh, yh)`` is what the paper's
pseudo-code manipulates and what every driver streams through partition
files; it is also what makes the hot loops slow, because each predicate
evaluation is a Python-level tuple indexing.  A :class:`ColumnarRelation`
holds the same records as five parallel numpy arrays (``oid`` as int64,
the four coordinates as float64), which is the layout every kernel in this
package operates on: sorting is one ``argsort``, window location is one
``searchsorted``, the y-overlap predicate is one boolean mask.

Converters are loss-free in both directions; ``to_kpes`` returns
:class:`~repro.core.rect.KPE` named tuples, so a columnar round trip is
invisible to tuple-based code.
"""

from __future__ import annotations

import functools
from typing import Any, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.rect import KPE

#: Records materialised per chunk when iterating columns as tuples
#: (bounds transient list size; a full ``[:]`` still works).
_ITER_CHUNK = 65536

#: ``KPE(*row)`` for a row tuple, without the named tuple's Python-level
#: ``__new__``: slicing and iteration box every row through it.
_new_kpe = functools.partial(tuple.__new__, KPE)

#: One KPE tuple as :meth:`ColumnarRelation.from_kpes` reads it.
_KPE_RECORD = np.dtype(
    [("oid", object), ("xl", "<f8"), ("yl", "<f8"), ("xh", "<f8"), ("yh", "<f8")]
)


class ColumnarRelation:
    """A relation of KPEs as five parallel numpy columns.

    ``sorted_by_xl`` records whether the rows are known to be in
    ascending ``xl`` order — the precondition of the forward-scan kernel.
    ``partition_memo`` is where ``kernels.assign.partition_ids`` keeps its
    partitionings of a :attr:`read_only` relation (``None`` until then).
    ``oid_objects`` is, for columns built by :meth:`from_kpes`, an object
    array of the tuples' own oid objects in row order — what the
    columnar PBSM driver builds result pairs from — and ``None``
    otherwise.

    A relation opened from an ``.rcd`` file
    (:meth:`~repro.kernels.mmapstore.MappedColumnarStore.relation`)
    carries its ``store`` (the mapping; ``None`` otherwise, and
    :attr:`mapped` says which) and the header's content ``fingerprint``,
    which the planner's caches key on without touching a record.  A
    registry dataset pinned into shared memory names its ``segment``:
    ``(manifest, prefix)``, the columns a pool worker reads instead of a
    per-query copy.

    ``oid_objects``, ``store`` and ``segment`` stay in this process and
    on this relation: pickling drops them, :meth:`rows` and :meth:`take`
    do not carry them, and shared memory holds the five columns only.
    """

    __slots__ = (
        "oid", "xl", "yl", "xh", "yh", "sorted_by_xl", "partition_memo",
        "oid_objects", "store", "fingerprint", "segment",
    )  # fmt: skip

    #: The slots pickling drops (process-local state).
    _LOCAL = ("oid_objects", "store", "segment")

    def __init__(
        self,
        oid: Any,
        xl: Any,
        yl: Any,
        xh: Any,
        yh: Any,
        sorted_by_xl: bool = False,
    ) -> None:
        self.oid = oid
        self.xl = xl
        self.yl = yl
        self.xh = xh
        self.yh = yh
        self.sorted_by_xl = sorted_by_xl
        self.partition_memo: Any = None
        self.oid_objects: Any = None
        self.store: Any = None
        self.fingerprint: Optional[str] = None
        self.segment: Any = None

    def __getstate__(self) -> Any:
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in self._LOCAL
        }

    def __setstate__(self, state: Any) -> None:
        for slot in self._LOCAL:
            setattr(self, slot, None)
        for slot, value in state.items():
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_kpes(cls, kpes: Sequence[Tuple]) -> "ColumnarRelation":
        """Build columns from a sequence of KPE tuples.

        A :class:`ColumnarRelation` (an opened ``.rcd`` file among them)
        comes back as it is: no per-tuple conversion, the kernels (and
        the shm packer, and serve's pinning) read its arrays directly.
        """
        if isinstance(kpes, cls):
            return kpes
        n = len(kpes)
        if n == 0:
            return cls(
                np.empty(0, dtype=np.int64),
                *(np.empty(0, dtype=np.float64) for _ in range(4)),
            )
        # One pass over the tuples: the oid objects themselves in an
        # object field, the coordinates as float64.  The int64 oid column
        # is a cast of the objects, exact at any size (and an oid beyond
        # int64 raises ``OverflowError`` there).
        table = np.fromiter(kpes, dtype=_KPE_RECORD, count=n)
        oid_objects = np.ascontiguousarray(table["oid"])
        cols = cls(
            oid_objects.astype(np.int64),
            np.ascontiguousarray(table["xl"]),
            np.ascontiguousarray(table["yl"]),
            np.ascontiguousarray(table["xh"]),
            np.ascontiguousarray(table["yh"]),
        )
        cols.oid_objects = oid_objects
        return cols

    @property
    def n(self) -> int:
        return int(self.oid.shape[0])

    def __len__(self) -> int:
        return self.n

    @property
    def columnar(self) -> "ColumnarRelation":
        """Itself: the attribute column-aware entry points probe a relation for."""
        return self

    @property
    def mapped(self) -> bool:
        """Whether the columns are the pages of an ``.rcd`` file (EXPLAIN
        prices ingest with it)."""
        return self.store is not None

    @property
    def read_only(self) -> bool:
        """Whether none of the five columns accepts writes.

        Such a relation (a mapped ``.rcd``, a registry dataset) promises
        that its rows never change, which is what lets the partitioner
        keep results computed from them.
        """
        return not any(
            column.flags.writeable
            for column in (self.oid, self.xl, self.yl, self.xh, self.yh)
        )

    def freeze(self) -> "ColumnarRelation":
        """Make the five columns read-only (in place) and return ``self``."""
        for column in (self.oid, self.xl, self.yl, self.xh, self.yh):
            column.flags.writeable = False
        return self

    def extent(self) -> Tuple[float, float, float, float]:
        """The MBR ``(xl, yl, xh, yh)`` of all rows, skipping NaN coordinates.

        The same fold as the scalar ``Space.of`` loop (a NaN never wins a
        ``<``/``>`` comparison there); an empty relation yields the
        loop's untouched ``(inf, inf, -inf, -inf)``.
        """
        return (
            float(np.fmin.reduce(self.xl, initial=np.inf)),
            float(np.fmin.reduce(self.yl, initial=np.inf)),
            float(np.fmax.reduce(self.xh, initial=-np.inf)),
            float(np.fmax.reduce(self.yh, initial=-np.inf)),
        )

    def rows(self, ids: Any, sorted_by_xl: bool = False) -> "ColumnarRelation":
        """Rows *ids* as a private copy that remembers where they came from.

        The copy's ``oid`` column is *ids* itself — row positions in this
        relation, not object identifiers — so the id-pair kernels hand
        back positions, which the caller decodes (or re-partitions)
        against these columns.  *sorted_by_xl* is the caller's word that
        *ids* run in ``(xl, row)`` order — a partition of
        ``partition_ids(..., by_xl=True)`` — so the kernels skip the sort.
        """
        # Not ``take``: that would gather the oid column only to drop it.
        return ColumnarRelation(
            ids, self.xl[ids], self.yl[ids], self.xh[ids], self.yh[ids],
            sorted_by_xl,
        )

    def take(self, index: Any, sorted_by_xl: bool = False) -> "ColumnarRelation":
        """Rows *index* of all five columns, in *index* order.

        An index array copies (numpy fancy indexing), so a kernel may
        sort the result while these columns — mapped pages, a shared
        segment — stay pristine; a slice yields views.
        """
        return ColumnarRelation(
            self.oid[index],
            self.xl[index],
            self.yl[index],
            self.xh[index],
            self.yh[index],
            sorted_by_xl,
        )

    # ------------------------------------------------------------------
    # conversion back
    # ------------------------------------------------------------------
    def to_kpes(self) -> List[KPE]:
        """The relation as KPE named tuples (loss-free round trip)."""
        return self[:]

    def __getitem__(self, index: Union[int, slice]) -> Any:
        """Row *index* as a KPE, or the rows of a slice as a list of KPEs.

        With ``len`` and iteration this makes the columns a lazy
        ``Sequence[KPE]``: tuple-based code (scalar engines, validators)
        sees an ordinary relation and pays conversion only for the
        records it touches.
        """
        if isinstance(index, slice):
            columns = (self.oid, self.xl, self.yl, self.xh, self.yh)
            return list(map(_new_kpe, zip(*(col[index].tolist() for col in columns))))
        return KPE(
            int(self.oid[index]),
            float(self.xl[index]),
            float(self.yl[index]),
            float(self.xh[index]),
            float(self.yh[index]),
        )

    def __iter__(self) -> Iterator[KPE]:
        for start in range(0, len(self), _ITER_CHUNK):
            yield from self[start : start + _ITER_CHUNK]

    # ------------------------------------------------------------------
    # kernel preconditions
    # ------------------------------------------------------------------
    def sort_by_xl(self) -> "ColumnarRelation":
        """A copy ordered by ``xl`` (stable, so equal keys keep input order)."""
        if self.sorted_by_xl:
            return self
        return self.take(xl_order(self.xl), sorted_by_xl=True)


def xl_order(xl: Any) -> Any:
    """``np.argsort(xl, kind="stable")``, computed 3-4x faster.

    numpy's unstable argsort is much quicker than its stable one on
    float64, and the two can only disagree inside runs of equal keys
    (``-0.0 == 0.0``; NaNs, sorted last, count as equal to each other).
    Those runs are put back in row order with one int64 sort of
    ``run * n + row`` over the tied positions only, so the permutation is
    exactly the stable one.
    """
    order = np.argsort(xl)
    n = order.shape[0]
    if n < 2:
        return order
    keys = xl[order]
    tied = keys[1:] == keys[:-1]
    nan = np.isnan(keys)
    tied |= nan[1:] & nan[:-1]
    if not tied.any():
        return order
    # Run number of every sorted position, then the positions inside runs.
    run = np.cumsum(np.concatenate(([True], ~tied)))
    inside = np.concatenate((tied, [False]))
    inside[1:] |= tied
    positions = np.flatnonzero(inside)
    repaired = run[positions] * n + order[positions]
    repaired.sort()
    order[positions] = repaired % n
    return order



def invalid_row(
    cols: ColumnarRelation, *, finite: bool, ordered: bool = True
) -> Optional[int]:
    """The first row that breaks an MBR rule, or ``None``.

    *ordered* asks for ``xl <= xh`` and ``yl <= yh`` (a NaN coordinate
    fails it), *finite* for no ±inf or NaN.  The file rule (loaders,
    ``.rcd`` build) is both; the engine's (:func:`checked_columns`)
    allows ±inf; the planner's asks for finite coordinates only.
    """
    ok: Any = True
    if ordered:
        ok = (cols.xl <= cols.xh) & (cols.yl <= cols.yh)
    if finite:
        for column in (cols.xl, cols.yl, cols.xh, cols.yh):
            ok = ok & np.isfinite(column)
    if np.all(ok):
        return None
    return int(np.argmin(ok))


def checked_columns(kpes: Sequence[Tuple], side: str) -> ColumnarRelation:
    """The columns of *kpes* for the PBSM partitioner, MBRs validated.

    A NaN coordinate or an inverted MBR (``xl > xh`` or ``yl > yh``) has
    no tile range: the partitioner would die deep inside numpy or, worse,
    join the row silently where it happens to stay inside one tile.
    Infinite extents are fine: they clamp to the border tiles and are
    never y-striped (joined against brute force in ``tests/``).
    """
    cols = ColumnarRelation.from_kpes(kpes)
    row = invalid_row(cols, finite=False)
    if row is not None:
        raise ValueError(
            f"{side} relation has a NaN coordinate or an inverted MBR at "
            f"row {row} (oid={int(cols.oid[row])}); PBSM cannot partition it"
        )
    return cols

