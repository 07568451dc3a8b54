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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.result import pair_columns
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

#: ``(left_oids, right_oids)`` — a result as two equally long int64
#: buffers (numpy arrays), the form ``JoinResult.to_arrays()`` returns.
OidColumns = Tuple[Any, Any]


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


def _is_columns(pairs: object) -> bool:
    """Whether *pairs* is an :data:`OidColumns` and not a sequence of pairs."""
    return (
        isinstance(pairs, tuple)
        and len(pairs) == 2
        and all(hasattr(column, "tobytes") for column in pairs)
    )


def _sorted_table(left: Any, right: Any) -> Any:
    """The pairs of two int64 columns as one sorted ``(n, 2)`` ``<i8`` table.

    A pair packs into one key ``(l - l_min) << bits | (r - r_min)``,
    ``bits`` wide enough for the right oids' span, whose order is the
    pairs' lexicographic order: one ``ndarray.sort()`` over the keys
    replaces the two-key ``lexsort``, and a shift and a mask unpack them.
    The keys are ``uint32`` when every key stays below ``2**32`` (half the
    bytes to sort) and int64 below ``2**63``; wider ranges keep
    ``lexsort``.  The spans are taken from the data.  Same table, hence
    the same digest, whichever way.
    """
    table = np.empty((len(left), 2), dtype="<i8")
    if not len(left):
        return table
    l_min, r_min = int(left.min()), int(right.min())
    r_span = int(right.max()) - r_min
    bits = r_span.bit_length()
    top = (int(left.max()) - l_min) << bits | r_span
    if top < 2**32:
        key_type: Any = np.uint32
    elif top < 2**63:
        key_type = np.int64
    else:
        order = np.lexsort((right, left))
        table[:, 0] = left[order]
        table[:, 1] = right[order]
        return table
    keys = (left - l_min).astype(key_type) << bits | (right - r_min).astype(key_type)
    keys.sort()
    table[:, 0] = keys >> bits
    table[:, 1] = keys & ((1 << bits) - 1)
    table[:, 0] += l_min
    table[:, 1] += r_min
    return table


def result_checksum(pairs: Union[Iterable[Tuple[int, int]], OidColumns]) -> str:
    """Order-insensitive SHA-256 fingerprint of a result-pair set.

    *pairs* is an iterable of ``(left_oid, right_oid)`` pairs or the
    :data:`OidColumns` of a result (``result.to_arrays()``), which are
    read as they are — no tuple is boxed.  The pairs are sorted as int64
    columns (:func:`_sorted_table`) and hashed as one packed buffer: the
    bytes of :data:`PAIR_STRUCT` over every pair in sorted order.
    """
    left, right = pairs if _is_columns(pairs) else pair_columns(pairs)
    table = _sorted_table(
        np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
    )
    return hashlib.sha256(table).hexdigest()  # C-contiguous buffer


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
    columns: OidColumns, page_size: int, pairs_format: str, query_id: int
) -> Iterator[bytes]:
    """The page messages of one ``join`` result, each ready for the socket.

    Pages are cut from the two oid buffers, in their order, and a pair
    is boxed only where the frame needs it: a :data:`PAIRS_I8` page is
    its header line plus the interleaved buffer slice, a JSON page is
    byte for byte ``encode_message({..., "pairs": page})`` over
    :func:`paginate` of the same pairs (``tolist()`` of the slice).
    """
    left, right = columns
    for index, start in enumerate(range(0, len(left), page_size)):
        head = {"ok": True, "query_id": query_id, "page": index}
        page = np.stack(
            (left[start : start + page_size], right[start : start + page_size]), axis=1
        )
        if pairs_format == PAIRS_I8:
            body = page.astype("<i8", copy=False).tobytes()
            yield encode_message({**head, "n": len(page), "bytes": len(body)}) + body
        else:
            yield encode_message({**head, "pairs": page.tolist()})


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
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "MAX_PAGE_SIZE",
    "OidColumns",
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
