"""Shared-memory columnar segments for zero-copy parallel execution.

A multiprocess PBSM executor that pickles the full replicated record
lists into every join task and pickles Python pair lists back spends its
wall time on IPC serialization, not on the join kernel.  This module is
the transport without the copies: the parent packs
both inputs' :class:`~repro.kernels.columnar.ColumnarRelation` columns
(plus the CSR partition-index arrays) into **one** POSIX shared-memory
segment (:class:`ShmSegment`), workers attach by name,
view the mapped columns as relations again
(:meth:`SharedColumnarStore.relation`) and ``take`` their partition
slices directly out of the mapped pages, and only a few integers per
task ever cross the pipe.

Lifecycle (who unlinks)
-----------------------
The name is the only ownership record.  Every segment is named
``repro_shm_<creator-pid>_...``, and no process registers it anywhere
else: there is no resource tracker, so creating, attaching and
unlinking are a few system calls each and start no helper process.

* The creator unlinks.  The parent creates the per-query segment and
  calls ``close()`` + ``unlink()`` when the fan-out completes —
  :class:`SharedColumnarStore` is a context manager exactly for that.
  Workers attach (they only copy rows out) and merely ``close()``.
* A worker-*created* result segment inverts the roles: the worker
  creates, the parent attaches, decodes and unlinks — while the worker
  is still alive, since the pool stays lent out until then.
* A creator that dies before unlinking leaves its segment behind until
  the next :func:`sweep_orphan_segments`, which reaps every repro
  segment whose creator pid is gone.  A server sweeps at start and
  stop, and a process sweeps whenever it spawns a warm pool, so a
  library process killed mid fan-out leaks only until the next fan-out
  or server start.

``shm_enabled()`` gates the whole path: ``REPRO_DISABLE_SHM`` must be
unset and the platform must actually support POSIX shared memory
(probed once). When the gate is closed the process executor runs the
in-process task loop instead, bit-for-bit.
"""

from __future__ import annotations

import itertools
import os
import secrets
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.kernels.columnar import ColumnarRelation

#: ``(segment_name, ((key, dtype_str, length, byte_offset), ...))`` — a
#: picklable description from which any process can attach the arrays.
Manifest = Tuple[str, Tuple[Tuple[str, str, int, int], ...]]

#: Every segment this module creates is named
#: ``repro_shm_<creator-pid>_<seq>_<token>`` so a sweep can (a) recognise
#: repro segments among foreign ones and (b) decide staleness by asking
#: whether the creator pid is still alive (see :func:`sweep_orphan_segments`).
SEGMENT_PREFIX = "repro_shm_"

_segment_seq = itertools.count()

#: The five column names a relation occupies under its key prefix.
COLUMNS = ("oid", "xl", "yl", "xh", "yh")

#: Cached result of the one-time platform probe.
_platform_probe: Optional[bool] = None


def _new_segment_name() -> str:
    """A fresh segment name that encodes this process as the creator."""
    return (
        f"{SEGMENT_PREFIX}{os.getpid()}_{next(_segment_seq)}_"
        f"{secrets.token_hex(4)}"
    )


def _segment_creator_pid(name: str) -> Optional[int]:
    """The creator pid encoded in a repro segment name, or ``None``."""
    stem = name.lstrip("/")
    if not stem.startswith(SEGMENT_PREFIX):
        return None
    try:
        return int(stem[len(SEGMENT_PREFIX) :].split("_", 1)[0])
    except (ValueError, IndexError):
        return None


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for *pid* (POSIX signal 0)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    except OSError:
        return True  # unknowable; err on the side of not sweeping
    return True


class ShmSegment:
    """One POSIX shared-memory segment, mapped read-write.

    ``ShmSegment(name, create=True, size=n)`` creates the segment (an
    existing name raises ``FileExistsError``); ``ShmSegment(name)`` maps
    an existing one whole.  :attr:`buf` is the mapping as a
    ``memoryview``.  :meth:`close` raises ``BufferError`` while a view
    of it is exported (a numpy array over it, say) and leaves it mapped.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, create: bool = False, size: int = 0) -> None:
        # Imported on first use: a join at one worker never maps a
        # segment, and loading these two extension modules with ``repro``
        # moved the peak RSS of such a join's process up ~2 MB.
        import mmap
        from _posixshmem import shm_open

        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = shm_open("/" + name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            else:
                size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        except BaseException:
            if create:
                unlink_segment(name)
            raise
        finally:
            os.close(fd)  # the mapping holds its own descriptor
        self.name = name
        self.size = size
        self.buf: Optional[memoryview] = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap this process's view (idempotent)."""
        if self.buf is not None:
            self.buf.release()  # BufferError while a view is exported
            self.buf = None
            self._mmap.close()

    def unlink(self) -> None:
        """Destroy the segment (idempotent); mappings stay until closed."""
        unlink_segment(self.name)


def unlink_segment(name: str) -> None:
    """Destroy segment *name*; a name already gone is no error."""
    from _posixshmem import shm_unlink

    try:
        shm_unlink("/" + name)
    except FileNotFoundError:
        pass


def _platform_has_shm() -> bool:
    """Probe (once) whether POSIX shared memory actually works here."""
    global _platform_probe
    if _platform_probe is None:
        # ImportError: no _posixshmem extension on this platform;
        # OSError: /dev/shm missing, full, or permission-denied.
        works = False
        try:
            segment = ShmSegment(_new_segment_name(), create=True, size=8)
            try:
                segment.unlink()
            finally:
                segment.close()
            works = True
        except (ImportError, OSError):
            pass
        _platform_probe = works
    return _platform_probe


def shm_enabled() -> bool:
    """True when the zero-copy shared-memory executor may be used.

    One switch (``REPRO_DISABLE_SHM``) flips every caller to the
    in-process loop, which is how CI proves the degraded path stays
    byte-identical.
    """
    if os.environ.get("REPRO_DISABLE_SHM"):
        return False
    return _platform_has_shm()


def _map_views(
    segment: ShmSegment,
    entries: Iterable[Tuple[str, str, int, int]],
    views: Dict[str, Any],
) -> None:
    """Fill *views* with the arrays *entries* describe, over *segment*."""
    for key, dtype, n, off in entries:
        views[key] = np.ndarray((n,), dtype=dtype, buffer=segment.buf, offset=off)


class SharedColumnarStore:
    """Named 1-D numpy arrays packed into one shared-memory segment.

    Create in the owner with :meth:`create`, ship :attr:`manifest` (a
    plain picklable tuple) to other processes, attach there with
    :meth:`attach`. The owner uses the instance as a context manager —
    ``__exit__`` closes *and unlinks*; attached (non-owner) instances
    only close.
    """

    __slots__ = ("_segment", "_arrays", "_manifest", "_owner")

    def __init__(
        self,
        segment: ShmSegment,
        arrays: Dict[str, Any],
        manifest: Manifest,
        owner: bool,
    ) -> None:
        self._segment = segment
        self._arrays = arrays
        self._manifest = manifest
        self._owner = owner

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Dict[str, object]) -> "SharedColumnarStore":
        """Copy *arrays* into a fresh segment.  Each maps a name to a 1-D
        ndarray, or to a list of 1-D pieces of one dtype laid out back to
        back as one array (at least one piece; empty ones included).

        If anything fails between allocating and returning (a
        ``KeyboardInterrupt`` mid-copy included), the segment is unlinked
        and closed before the exception propagates: nobody else knows
        its name yet.
        """
        entries = []
        offset = 0
        pieces = {}
        for key, value in arrays.items():
            parts = value if isinstance(value, list) else [value]
            dtype = parts[0].dtype
            n = sum(len(part) for part in parts)
            pieces[key] = parts
            entries.append((key, dtype.str, n, offset))
            offset += n * dtype.itemsize
        views: Dict[str, Any] = {}
        segment = ShmSegment(_new_segment_name(), create=True, size=max(offset, 1))
        try:
            _map_views(segment, entries, views)
            for key, view in views.items():
                at = 0
                for part in pieces[key]:
                    view[at : at + len(part)] = part
                    at += len(part)
            return cls(segment, views, (segment.name, tuple(entries)), owner=True)
        except BaseException:
            views.clear()  # drop the exported views so close() can unmap
            segment.unlink()
            segment.close()
            raise

    @classmethod
    def attach(cls, manifest: Manifest) -> "SharedColumnarStore":
        """Map an existing segment described by *manifest* (non-owner).

        A manifest the segment cannot hold closes the handle again
        before the exception propagates.
        """
        name, entries = manifest
        views: Dict[str, Any] = {}
        segment = ShmSegment(name)
        try:
            _map_views(segment, entries, views)
            return cls(segment, views, manifest, owner=False)
        except BaseException:
            views.clear()  # drop the exported views so close() can unmap
            segment.close()
            raise

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Manifest:
        return self._manifest

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def nbytes(self) -> int:
        """Mapped segment size (what zero-copy avoids shipping)."""
        return self._segment.size

    @property
    def owner(self) -> bool:
        return self._owner

    def __getitem__(self, key: str) -> Any:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def keys(self) -> Iterator[str]:
        return self._arrays.keys()

    def relation(self, prefix: str) -> ColumnarRelation:
        """The relation stored under *prefix*, as views of the mapped columns.

        The inverse of :func:`columnar_arrays`.  Nothing is copied:
        callers ``take`` the rows they need (a private copy kernels may
        sort) and must drop the views before :meth:`close` can unmap.
        """
        return ColumnarRelation(
            *(self._arrays[f"{prefix}.{col}"] for col in COLUMNS)
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the mapped views and close this process's handle."""
        self._arrays = {}
        try:
            self._segment.close()
        except BufferError:  # a caller still holds a view; leave mapped
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        self._segment.unlink()

    def __enter__(self) -> "SharedColumnarStore":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
        if self._owner:
            self.unlink()


def sweep_orphan_segments(include_live: bool = False) -> List[str]:
    """Unlink repro shared-memory segments whose creator is dead.

    A server killed with SIGKILL (or a worker dying mid-result) can
    leave named segments behind until reboot.  Every repro segment name
    embeds its creator's pid, so staleness is decidable: if that pid no
    longer exists, nobody will ever unlink the segment — reap it.  With
    ``include_live=True`` segments created by the *current* process are
    swept too (the shutdown path of a server unlinking its own pins).

    Returns the names actually unlinked.  Safe to call on platforms
    without shared memory (returns ``[]``).
    """
    shm_dir = "/dev/shm"  # POSIX shm backing store on Linux
    if not os.path.isdir(shm_dir):
        return []
    own_pid = os.getpid()
    swept: List[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return []
    for name in names:
        pid = _segment_creator_pid(name)
        if pid is None:
            continue  # not ours; never touch foreign segments
        if pid == own_pid:
            if not include_live:
                continue
        elif _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
            swept.append(name)
        except OSError:
            continue  # raced with another sweeper, or permissions
    return swept


def columnar_arrays(prefix: str, cols: ColumnarRelation) -> Dict[str, object]:
    """The five columns of *cols* keyed for a :class:`SharedColumnarStore`."""
    return {f"{prefix}.{col}": getattr(cols, col) for col in COLUMNS}


__all__ = [
    "Manifest",
    "SEGMENT_PREFIX",
    "SharedColumnarStore",
    "ShmSegment",
    "columnar_arrays",
    "shm_enabled",
    "sweep_orphan_segments",
    "unlink_segment",
]
