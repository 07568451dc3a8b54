"""The dataset registry: load relations once, pin them in shared memory.

Tsitsigkos & Mamoulis (PAPERS.md) locate the win of a long-running
spatial-join service in *partition-once/query-many* amortisation.  The
registry is the "once" half: a relation is loaded (from a file, a
synthetic generator, or inline records) a single time, kept with
read-only columns the planner and both drivers consume — so each
dataset's partitioning per grid is computed once too
(``kernels.assign.partition_ids``) — and, when shared memory is
available, additionally *pinned* into a long-lived
:class:`~repro.kernels.shm.SharedColumnarStore` segment.

Pinned columns live under the neutral ``D.*`` prefix because at pin time
nobody knows whether the dataset will be the left or the right input of
a query.  The dataset's relation names its segment
(``ColumnarRelation.segment``), a query hands each side's name to the
pool, and a worker reads those ``D.*`` columns as that side's relation
(``SharedColumnarStore.relation("D")``) next to the id arrays of the
per-query segment.  A persistent worker that has
attached a pinned segment once keeps it mapped, so repeated queries over
registered datasets never re-ship (or even re-map) the relation columns.

The registry owns the segments: :meth:`DatasetRegistry.close` unlinks
every pin, and the server additionally runs the orphan sweep at startup
and shutdown so a crash never leaks segments past the next boot of the
service (see ``kernels/shm.py``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datasets import PATTERNS
from repro.datasets.fileio import load_relation
from repro.kernels.columnar import ColumnarRelation
from repro.kernels.shm import SharedColumnarStore, columnar_arrays, shm_enabled
from repro.planner.stats import relation_fingerprint


@dataclass
class Dataset:
    """One registered relation: its columns, optionally a pinned segment."""

    name: str
    #: The relation every query reads: a mapped ``.rcd`` file, or the
    #: read-only columns of the records registered (built once, keeping
    #: their oid objects).  Either way the columns never change, so
    #: partitionings computed from them are kept.  While pinned it
    #: names its segment (``kpes.segment``).
    kpes: ColumnarRelation
    #: human-readable provenance ("file:...", "pattern:...", "records")
    source: str
    store: Optional[SharedColumnarStore] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.kpes)

    @property
    def pinned(self) -> bool:
        return self.store is not None

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary for the ``datasets`` protocol op."""
        return {
            "name": self.name,
            "n": self.n,
            "source": self.source,
            "pinned": self.pinned,
            "segment": self.store.name if self.store is not None else None,
            "segment_bytes": self.store.nbytes if self.store is not None else 0,
        }


class DatasetRegistry:
    """Named datasets shared by every query of a server process."""

    def __init__(self) -> None:
        # Datasets are pinned into shared-memory segments wherever the
        # platform allows it (``shm_enabled()``; ``REPRO_DISABLE_SHM=1``
        # keeps them unpinned).
        self._lock = threading.Lock()
        self._datasets: Dict[str, Dataset] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, kpes: Sequence[Tuple], source: str = "records"
    ) -> Dataset:
        """Register *kpes* under *name* (idempotent for an equal source).

        Re-registering an existing name with the same *source* returns
        the existing entry (so every load-generator client may issue the
        same ``register`` ops without coordination); a differing source
        is a conflict and raises.
        """
        if not name:
            raise ValueError("dataset name must be non-empty")
        with self._lock:
            existing = self._datasets.get(name)
        if existing is not None:
            return _same_source(existing, source)
        # Mapped relations (``.rcd`` files) stay as they are: boxing one
        # would parse every record into tuples — the exact cost the
        # format exists to avoid.  Pinning below copies straight from
        # the file mapping into the segment instead.  Records get their
        # columns built once, here, instead of on every query, and so
        # does the content key the plan caches look them up by (a mapped
        # file carries its header's).
        relation = ColumnarRelation.from_kpes(kpes)
        if relation is not kpes:
            relation.freeze().fingerprint = relation_fingerprint(relation)
        entry = Dataset(name=name, kpes=relation, source=source)
        if shm_enabled() and len(relation):
            entry.store = SharedColumnarStore.create(columnar_arrays("D", relation))
        with self._lock:
            raced = self._datasets.get(name)
            if raced is None:
                self._datasets[name] = entry
                if entry.store is not None:
                    relation.segment = (entry.store.manifest, "D")
                return entry
        # Another thread registered the same name first; drop ours.
        if entry.store is not None:
            entry.store.close()
            entry.store.unlink()
            entry.store = None
        return _same_source(raced, source)

    def register_file(self, name: str, path: str) -> Dataset:
        """Load a relation file (.csv/.npy/.rcd) and register it.

        ``.rcd`` files are opened as zero-copy mapped relations, so
        registration (and pinning into shm) never parses a record:
        the pin is one memmap-to-segment array copy.
        """
        return self.register(name, load_relation(path), source=f"file:{path}")

    def register_synthetic(
        self,
        name: str,
        pattern: str,
        n: int,
        seed: int = 1,
        start_oid: int = 0,
    ) -> Dataset:
        """Generate a synthetic relation server-side and register it.

        The generators are deterministic under ``seed``, so a client that
        generates the same pattern locally holds byte-identical records —
        the load harness verifies checksums against exactly this.
        """
        generator = PATTERNS.get(pattern)
        if generator is None:
            raise ValueError(
                f"unknown pattern {pattern!r}; choose from {sorted(PATTERNS)}"
            )
        source = f"pattern:{pattern}:{n}:{seed}:{start_oid}"
        with self._lock:
            existing = self._datasets.get(name)
        if existing is not None and existing.source == source:
            return existing
        kpes = generator(n, seed=seed, start_oid=start_oid)
        return self.register(name, kpes, source=source)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Dataset:
        with self._lock:
            entry = self._datasets.get(name)
        if entry is None:
            raise KeyError(f"unknown dataset {name!r}")
        return entry

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._datasets)

    def pinned_bytes(self) -> int:
        """The summed size of the pinned segments."""
        with self._lock:
            stores = [entry.store for entry in self._datasets.values()]
        return sum(store.nbytes for store in stores if store is not None)

    def describe(self) -> List[Dict[str, object]]:
        with self._lock:
            entries = list(self._datasets.values())
        return [entry.describe() for entry in sorted(entries, key=lambda d: d.name)]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every pinned segment (idempotent)."""
        with self._lock:
            entries = list(self._datasets.values())
        for entry in entries:
            if entry.store is not None:
                entry.kpes.segment = None
                entry.store.close()
                entry.store.unlink()
                entry.store = None


def _same_source(existing: Dataset, source: str) -> Dataset:
    """*existing*, when it was registered from *source*; else raise."""
    if existing.source != source:
        raise ValueError(
            f"dataset {existing.name!r} already registered from "
            f"{existing.source!r}, refusing {source!r}"
        )
    return existing


__all__ = ["Dataset", "DatasetRegistry"]
