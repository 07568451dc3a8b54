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
import itertools
import json
import struct
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.kernels.backend import get_numpy

#: Upper bound on one protocol line; the asyncio stream reader limit.
#: Large enough for a register-by-records request of a few hundred
#: thousand KPEs; joins stream pages, so results never approach it.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Result pairs per ``join`` page message.
DEFAULT_PAGE_SIZE = 20_000

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 7207

_PAIR_STRUCT = struct.Struct("<qq")


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


def result_checksum(pairs: Iterable[Tuple[int, int]]) -> str:
    """Order-insensitive SHA-256 fingerprint of a result-pair set.

    On the numpy backend the pairs are sorted as two int64 columns and
    hashed as one packed buffer — the same bytes, hence the same digest,
    as the per-pair ``struct`` loop below.
    """
    np = get_numpy()
    if np is not None:
        rows = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        table = np.fromiter(
            itertools.chain.from_iterable(rows), dtype="<i8", count=2 * len(rows)
        ).reshape(-1, 2)
        order = np.lexsort((table[:, 1], table[:, 0]))
        return hashlib.sha256(table[order]).hexdigest()  # C-contiguous buffer
    digest = hashlib.sha256()
    pack = _PAIR_STRUCT.pack
    for left_oid, right_oid in sorted(pairs):
        digest.update(pack(left_oid, right_oid))
    return digest.hexdigest()


def paginate(pairs: Sequence[Tuple[int, int]], page_size: int) -> Iterable[List[List[int]]]:
    """Result pairs as JSON-ready pages of at most *page_size* pairs."""
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    for start in range(0, len(pairs), page_size):
        yield [[int(a), int(b)] for a, b in pairs[start : start + page_size]]


__all__ = [
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "error_response",
    "paginate",
    "result_checksum",
]
