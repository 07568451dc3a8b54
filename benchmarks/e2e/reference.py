"""The correctness gate: an independent brute-force reference join.

Nothing here calls the program's join code (only its dataset generators,
through ``specs.make_relations``).  The reference tests every
left record against every right record whose x-extent can reach it
(chunks of x-sorted left rows against the right rows overlapping the
chunk's x-band — pruning that cannot drop an intersecting pair), with
the closed-rectangle predicate written out in numpy.  Result sets are
compared through the service's checksum contract — SHA-256 over the
sorted ``(left_oid, right_oid)`` pairs packed as little-endian int64 —
re-implemented here so a checksum bug in the program cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

# The reference *is* numpy, and the benchmark does not run without it.
import numpy as np  # repro-lint: disable=RPL001

from benchmarks.e2e.specs import DEFAULT_SEED, TIGER50K, UNI30K, Dataset, make_relations

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Left rows per brute-force chunk (bounds the chunk x candidates matrix).
_CHUNK_ROWS = 512


@dataclass(frozen=True)
class Expected:
    """What every op on a dataset must return."""

    n_pairs: int
    checksum: str


def _table(kpes: Sequence[tuple]) -> np.ndarray:
    return np.array(kpes, dtype=np.float64).reshape(len(kpes), 5)


def brute_force_pairs(left: Sequence[tuple], right: Sequence[tuple]) -> np.ndarray:
    """All intersecting ``(left_oid, right_oid)`` pairs as an (n, 2) int64 array."""
    a = _table(left)
    b = _table(right)
    a = a[np.argsort(a[:, 1], kind="stable")]
    b_oid = b[:, 0].astype(np.int64)
    found = [np.empty((0, 2), dtype=np.int64)]
    for start in range(0, len(a), _CHUNK_ROWS):
        chunk = a[start : start + _CHUNK_ROWS]
        near = np.flatnonzero(
            (b[:, 1] <= chunk[:, 3].max()) & (b[:, 3] >= chunk[:, 1].min())
        )
        cand = b[near]
        hit = (
            (chunk[:, None, 1] <= cand[None, :, 3])
            & (cand[None, :, 1] <= chunk[:, None, 3])
            & (chunk[:, None, 2] <= cand[None, :, 4])
            & (cand[None, :, 2] <= chunk[:, None, 4])
        )
        rows, cols = np.nonzero(hit)
        found.append(
            np.stack([chunk[rows, 0].astype(np.int64), b_oid[near[cols]]], axis=1)
        )
    return np.concatenate(found)


def pairs_array(pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
    array = np.array(pairs if isinstance(pairs, list) else list(pairs), dtype=np.int64)
    return array.reshape(-1, 2)


def _sorted(pairs: np.ndarray) -> np.ndarray:
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _checksum_sorted(ordered: np.ndarray) -> str:
    return hashlib.sha256(ordered.astype("<i8").tobytes()).hexdigest()


def checksum(pairs: np.ndarray) -> str:
    """Order-insensitive SHA-256 of an (n, 2) pair array."""
    return _checksum_sorted(_sorted(pairs))


def compute_expected(left: Sequence[tuple], right: Sequence[tuple]) -> Expected:
    pairs = brute_force_pairs(left, right)
    return Expected(len(pairs), checksum(pairs))


def check_pairs(pairs: Iterable[Tuple[int, int]], expected: Expected) -> Optional[str]:
    """Why *pairs* is not the expected result set, or ``None`` if it is."""
    ordered = _sorted(pairs_array(pairs))
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        return "a pair was reported more than once"
    if len(ordered) != expected.n_pairs:
        return f"{len(ordered)} pairs, expected {expected.n_pairs}"
    if _checksum_sorted(ordered) != expected.checksum:
        return "result checksum differs from the brute-force reference"
    return None


# ----------------------------------------------------------------------
# the committed record for the default seed
# ----------------------------------------------------------------------
def load_expected() -> Dict[str, Expected]:
    """``expected.json``: the full-scale datasets at the default seed."""
    with open(EXPECTED_PATH) as handle:
        document = json.load(handle)
    return {
        name: Expected(entry["n_pairs"], entry["checksum"])
        for name, entry in document["datasets"].items()
    }


def write_expected(entries: Dict[str, Expected]) -> None:
    document = {
        "seed": DEFAULT_SEED,
        "checksum": "sha256 over sorted (left_oid, right_oid) pairs, each '<qq'",
        "datasets": {
            name: {"n_pairs": e.n_pairs, "checksum": e.checksum}
            for name, e in sorted(entries.items())
        },
    }
    EXPECTED_PATH.write_text(json.dumps(document, indent=2) + "\n")


def expected_for(dataset: Dataset) -> Expected:
    """The reference for one run.  ``make_relations`` pins the geometry,
    so the committed record holds for every seed at full scale; another
    scale (``--smoke``) is computed on the fly."""
    if dataset in (TIGER50K, UNI30K):
        return load_expected()[dataset.name]
    return compute_expected(*make_relations(dataset, DEFAULT_SEED))
