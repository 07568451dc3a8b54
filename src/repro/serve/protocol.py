"""Wire protocol of the join service: line-delimited JSON.

One request is one JSON object on one line; the server answers with one
or more JSON objects, one per line.  Most operations produce exactly one
response; ``join`` streams zero or more *page* messages (each carrying a
bounded slice of the result pairs) followed by one *summary* message, so
a multi-million-pair result never has to fit in a single line or a
single buffer on either side.

Every response carries ``"ok"``; error responses carry ``"error"``
(machine-readable reason code) and ``"message"``.  Join pages carry
``"page"``/``"pairs"``; the summary is the response with ``"done":
true``.

The binary page frame
---------------------
A ``join`` request that carries ``"pairs_format": "i8"`` says its sender
can read pages as raw bytes.  Such a page is the JSON header line
``{"ok":true,"query_id":q,"page":i,"n":n,"bytes":16*n}`` followed by
exactly ``bytes`` bytes: the page's pairs row-major, each ``(left_oid,
right_oid)`` as two little-endian int64 (the layout the checksum
hashes).  A request without the key gets JSON pages; errors and the
summary are JSON lines in either case.

The checksum contract
---------------------
:func:`result_checksum` is the *order-insensitive* fingerprint of a
result set: SHA-256 over the sorted ``(left_oid, right_oid)`` pairs,
each packed as two little-endian int64s.  The planner is free to answer
the same query with different algorithms (whose output pair *order*
differs), so the load harness compares checksums, not pair sequences —
equal checksums mean byte-identical sorted result sets.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.result import PairRows, pair_columns
from repro.io.costmodel import is_memory_mb

#: Upper bound on one protocol line; the asyncio stream reader limit.
#: Large enough for a register-by-records request of a few hundred
#: thousand KPEs; joins stream pages, so results never approach it.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Result pairs per ``join`` page message.
DEFAULT_PAGE_SIZE = 20_000

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 7207

#: Largest ``page_size`` a ``join`` may ask for.  A pair is at most 44
#: bytes in a JSON page and 16 in a binary one, so a page of either
#: frame always fits the stream reader's :data:`MAX_LINE_BYTES`.
MAX_PAGE_SIZE = MAX_LINE_BYTES // 64

#: Values of a ``join`` request's ``pairs_format``: JSON pages (what a
#: request without the key gets) or the binary frame.
PAIRS_JSON = "json"
PAIRS_I8 = "i8"

#: One pair on the binary frame, and in the checksum.
PAIR_STRUCT = struct.Struct("<qq")

#: Pairs the checksum packs, gathers or hashes at a time: the bound on
#: its temporaries (a 512 KiB table of sorted pairs).
CHECKSUM_CHUNK = 1 << 15


def encode_message(message: Dict[str, Any]) -> bytes:
    """One protocol message as a single JSON line (newline included)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


class ProtocolError(Exception):
    """A malformed protocol message (either direction)."""


def error_response(error: str, message: str, **extra: Any) -> Dict[str, Any]:
    return {"ok": False, "error": error, "message": message, **extra}


def is_integer(value: object) -> bool:
    """A JSON integer: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _packed_keys(
    slices: Iterable[Tuple[Any, Any]], n: int, l_min: int, l_max: int, r_min: int, r_max: int
) -> Optional[Tuple[Any, int]]:
    """``(keys, bits)``: the *n* pairs of *slices* (at most
    :data:`CHECKSUM_CHUNK` pairs each) packed in place, one key
    ``(l - l_min) << bits | (r - r_min)`` a pair, ``bits`` wide enough
    for ``r_max - r_min``; ``None`` when the largest key could reach
    ``2**63``.

    The key order is the pairs' lexicographic order whatever bounds
    enclose the oids, so one ``ndarray.sort()`` sorts the pairs, and a
    shift and a mask unpack them (:func:`_unpack`).  The keys are
    ``uint32`` when every key stays below ``2**32`` (half the bytes to
    sort) and int64 otherwise.  Each slice is packed straight into its
    stretch of the keys (``out=``): no temporary outlives a slice.
    """
    r_span = r_max - r_min
    bits = r_span.bit_length()
    top = (l_max - l_min) << bits | r_span
    if top < 2**32:
        key_type: Any = np.uint32
    elif top < 2**63:
        key_type = np.int64
    else:
        return None
    keys = np.empty(n, dtype=key_type)
    scratch = np.empty(min(n, CHECKSUM_CHUNK), dtype=key_type)
    lo = 0
    for left, right in slices:
        hi = lo + len(left)
        out, low = keys[lo:hi], scratch[: hi - lo]
        np.subtract(left, l_min, out=out, casting="unsafe")
        out <<= bits
        np.subtract(right, r_min, out=low, casting="unsafe")
        out |= low
        lo = hi
        del left, right  # a gathered slice goes before the next one comes
    return keys, bits


def _unpack(keys: Any, bits: int, l_min: int, r_min: int, table: Any) -> None:
    """Sorted packed *keys* back into the pairs, written into *table*
    (``(len(keys), 2)`` ``<i8``)."""
    np.right_shift(keys, bits, out=table[:, 0], casting="unsafe")
    np.bitwise_and(keys, (1 << bits) - 1, out=table[:, 1], casting="unsafe")
    table[:, 0] += l_min
    table[:, 1] += r_min


def _sorted_table(left: Any, right: Any) -> Any:
    """The pairs of two int64 columns as one sorted ``(n, 2)`` ``<i8`` table.

    The reference form of what :func:`result_checksum` hashes: the same
    packed keys (:func:`_packed_keys`, over the data's own spans) sorted
    and unpacked at once; ``lexsort`` where no key type fits.
    """
    table = np.empty((len(left), 2), dtype="<i8")
    if not len(left):
        return table
    l_min, r_min = int(left.min()), int(right.min())
    slices = (
        (left[lo : lo + CHECKSUM_CHUNK], right[lo : lo + CHECKSUM_CHUNK])
        for lo in range(0, len(left), CHECKSUM_CHUNK)
    )
    packed = _packed_keys(
        slices, len(left), l_min, int(left.max()), r_min, int(right.max())
    )
    if packed is None:
        order = np.lexsort((right, left))
        table[:, 0] = left[order]
        table[:, 1] = right[order]
        return table
    keys, bits = packed
    keys.sort()
    _unpack(keys, bits, l_min, r_min, table)
    return table


def result_checksum(pairs: Iterable[Tuple[int, int]]) -> str:
    """Order-insensitive SHA-256 fingerprint of a result-pair set.

    *pairs* is a ``result.pairs`` (:class:`~repro.core.result.PairRows`),
    whose row positions are read as they are: no tuple is boxed, and
    its oids are gathered one :data:`CHECKSUM_CHUNK` at a time.  Any
    other iterable of ``(left_oid, right_oid)`` pairs is unboxed into
    one first (:meth:`~repro.core.result.PairRows.of_oids`).  The digest
    is that of the bytes of :data:`PAIR_STRUCT` over every pair in
    sorted order.  The pairs are
    packed into one key each (:func:`_packed_keys`, bounded by the oid
    columns they are read from), sorted in place and unpacked a chunk at
    a time into the hash; where no key type fits, the sorted table of
    :func:`_sorted_table` is hashed whole.
    """
    rows = pairs if isinstance(pairs, PairRows) else PairRows.of_oids(*pair_columns(pairs))
    (left, right), n = rows.columns, len(rows)
    digest = hashlib.sha256()
    if not n:
        return digest.hexdigest()
    l_min, r_min = int(left.min()), int(right.min())
    packed = _packed_keys(
        rows.oid_chunks(CHECKSUM_CHUNK), n, l_min, int(left.max()), r_min, int(right.max())
    )
    if packed is None:
        digest.update(_sorted_table(*next(rows.oid_chunks(n))))
        return digest.hexdigest()
    keys, bits = packed
    keys.sort()
    table = np.empty((min(n, CHECKSUM_CHUNK), 2), dtype="<i8")
    for lo in range(0, n, CHECKSUM_CHUNK):
        chunk = keys[lo : lo + CHECKSUM_CHUNK]
        _unpack(chunk, bits, l_min, r_min, table[: len(chunk)])
        digest.update(table[: len(chunk)])  # C-contiguous rows
    return digest.hexdigest()


def paginate(pairs: Sequence[Tuple[int, int]], page_size: int) -> Iterable[List[List[int]]]:
    """Result pairs as JSON-ready pages of at most *page_size* pairs.

    The reference form of a JSON page, for callers that hold a pair list
    (the benchmark's replay, tests); the server cuts the same pages from
    oid buffers with :func:`encode_pages`.
    """
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    for start in range(0, len(pairs), page_size):
        yield [[int(a), int(b)] for a, b in pairs[start : start + page_size]]


def encode_pages(
    pairs: PairRows, page_size: int, pairs_format: str, query_id: int
) -> Iterator[Tuple[Any, ...]]:
    """The page messages of one ``join`` result, each the buffers to write
    to the socket in turn.

    Pages are cut from ``result.pairs`` in their order, its oids
    gathered a page at a time
    (:meth:`~repro.core.result.PairRows.oid_chunks`), and each is
    filled into one fresh ``(n, 2)`` ``<i8`` table; a pair is boxed only
    where the frame needs it.  A :data:`PAIRS_I8` page is two buffers,
    its header line and the table's bytes; a JSON page is one, byte for
    byte ``encode_message({..., "pairs": page})`` over :func:`paginate`
    of the same pairs.  No table is reused: a transport may queue the
    caller's buffer without copying it.
    """
    for index, (left, right) in enumerate(pairs.oid_chunks(page_size)):
        head = {"ok": True, "query_id": query_id, "page": index}
        page = np.empty((len(left), 2), dtype="<i8")
        page[:, 0] = left
        page[:, 1] = right
        del left, right  # a gathered slice goes before the page is written
        if pairs_format == PAIRS_I8:
            header = encode_message({**head, "n": len(page), "bytes": page.nbytes})
            yield header, memoryview(page).cast("B")
        else:
            yield (encode_message({**head, "pairs": page.tolist()}),)


def join_options(
    message: Dict[str, Any], default_page_size: int
) -> Tuple[Optional[float], bool, int, str]:
    """``(memory_mb, include_pairs, page_size, pairs_format)`` of a ``join``.

    The optional fields of the request, defaults filled in (``memory_mb``
    stays ``None`` when absent: the server's own budget applies).  Raises
    :class:`ProtocolError` naming the field that no server could honour.
    """
    memory_mb = message.get("memory_mb")
    if memory_mb is not None and not is_memory_mb(memory_mb):
        raise ProtocolError(
            f"memory_mb must be a finite number > 0 (at least one byte), got {memory_mb!r}"
        )
    include_pairs = message.get("include_pairs", False)
    if not isinstance(include_pairs, bool):
        raise ProtocolError(
            f"include_pairs must be true or false, got {include_pairs!r}"
        )
    page_size = message.get("page_size", default_page_size)
    if not is_integer(page_size) or not 1 <= page_size <= MAX_PAGE_SIZE:
        raise ProtocolError(
            f"page_size must be an integer in 1..{MAX_PAGE_SIZE}, got {page_size!r}"
        )
    pairs_format = message.get("pairs_format", PAIRS_JSON)
    if pairs_format not in (PAIRS_JSON, PAIRS_I8):
        raise ProtocolError(
            f"pairs_format must be {PAIRS_JSON!r} or {PAIRS_I8!r}, got {pairs_format!r}"
        )
    return memory_mb, include_pairs, page_size, pairs_format


__all__ = [
    "CHECKSUM_CHUNK",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "MAX_PAGE_SIZE",
    "PAIRS_I8",
    "PAIRS_JSON",
    "PAIR_STRUCT",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "encode_pages",
    "error_response",
    "is_integer",
    "join_options",
    "paginate",
    "result_checksum",
]
