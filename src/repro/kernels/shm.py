"""Shared-memory columnar segments for zero-copy parallel execution.

A multiprocess PBSM executor that pickles the full replicated record
lists into every join task and pickles Python pair lists back spends its
wall time on IPC serialization, not on the join kernel.  This module is
the transport without the copies: the parent packs
both inputs' :class:`~repro.kernels.columnar.ColumnarRelation` columns
(plus the CSR partition-index arrays) into **one**
:mod:`multiprocessing.shared_memory` segment, workers attach by name,
view the mapped columns as relations again
(:meth:`SharedColumnarStore.relation`) and ``take`` their partition
slices directly out of the mapped pages, and only a few integers per
task ever cross the pipe.

Lifecycle (who unlinks)
-----------------------
The parent is the owner: it creates the segment, keeps it registered
with the ``resource_tracker`` (so a crashed parent still gets cleaned up
at interpreter shutdown), and calls ``close()`` + ``unlink()`` when the
fan-out completes — :class:`SharedColumnarStore` is a context manager
exactly for that. Workers attach read-only in spirit (they only copy
rows out) and merely ``close()`` on exit — pool workers share the parent's
resource tracker, so attaching never double-books the segment and a
worker exit never tears it down (a forked worker starts with the
tracker's lock unheld, whatever the parent's other threads were doing).
Worker-*created* result segments
invert the roles: the worker creates untracked and the parent attaches,
decodes and unlinks. The one crash window is a worker dying between creating
its result segment and the parent unlinking it — that segment leaks
until reboot, which ``docs/architecture.md`` documents as the price of
zero-copy results.

``shm_enabled()`` gates the whole path: ``REPRO_DISABLE_SHM`` must be
unset and the platform must actually support POSIX shared memory
(probed once). When the gate is closed the process executor runs the
in-process task loop instead, bit-for-bit.
"""

from __future__ import annotations

import itertools
import os
import secrets
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

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


def _shared_memory_module() -> Any:
    from multiprocessing import shared_memory

    return shared_memory


def _platform_has_shm() -> bool:
    """Probe (once) whether POSIX shared memory actually works here."""
    global _platform_probe
    if _platform_probe is None:
        # ImportError: no _posixshmem extension on this platform;
        # OSError: /dev/shm missing, full, or permission-denied;
        # BufferError: close() refused while a view is still mapped.
        try:
            seg = _shared_memory_module().SharedMemory(create=True, size=8)
            try:
                _platform_probe = True
            finally:
                seg.close()
                seg.unlink()
        except (ImportError, OSError, BufferError):
            _platform_probe = False
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


def _untrack(segment: Any) -> None:
    """Remove *segment* from the resource tracker (worker-side creates).

    A worker-created result segment is cleaned up by the *parent* after
    decoding; without this, the tracker would double-book the name and
    warn about "leaked" shared memory if the parent unlinks first.

    ImportError/AttributeError cover interpreters without the tracker
    API; OSError covers a tracker process that already exited.  Anything
    else is a real lifecycle bug and must surface.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except (ImportError, AttributeError, OSError):
        pass


def _unlock_tracker_in_child() -> None:
    """After ``fork``, in the child: the resource tracker's lock is free.

    ``fork`` copies the tracker's lock in whatever state it is in.  When
    another thread of the parent was inside a tracker call at that moment
    (creating, attaching or unlinking a segment), the child's copy stays
    held by a thread the child does not have, and the child's first
    create or attach blocks forever: a warm-pool worker forked while a
    second thread of the parent starts its own query never returns its
    chunk.  The child runs one thread, so an unheld lock is the true
    state.  Nothing to do before anything imported the tracker.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    reinit = getattr(getattr(tracker, "_lock", None), "_at_fork_reinit", None)
    if reinit is not None:
        reinit()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unlock_tracker_in_child)


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
        segment: Any,
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
    def create(cls, arrays: Dict[str, object], track: bool = True) -> "SharedColumnarStore":
        """Copy *arrays* (name -> 1-D ndarray) into a fresh segment.

        With ``track=False`` the segment is immediately unregistered from
        the resource tracker — the worker-side result transport, where
        the *parent* unlinks after decoding.  If anything fails between
        allocating and returning (a ``KeyboardInterrupt`` mid-copy
        included), the segment is closed and unlinked before the
        exception propagates: nobody else knows its name yet.
        """
        entries = []
        offset = 0
        packed = {}
        for key, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            packed[key] = arr
            entries.append((key, arr.dtype.str, int(arr.shape[0]), offset))
            offset += int(arr.nbytes)
        views: Dict[str, Any] = {}
        segment = _shared_memory_module().SharedMemory(
            name=_new_segment_name(), create=True, size=max(offset, 1)
        )
        try:
            if not track:
                _untrack(segment)
            for key, dtype, n, off in entries:
                views[key] = np.ndarray(
                    (n,), dtype=dtype, buffer=segment.buf, offset=off
                )
                views[key][:] = packed[key]
            manifest: Manifest = (segment.name, tuple(entries))
            return cls(segment, views, manifest, owner=True)
        except BaseException:
            views.clear()  # drop the exported views so close() can unmap
            segment.close()
            segment.unlink()
            raise

    @classmethod
    def attach(cls, manifest: Manifest) -> "SharedColumnarStore":
        """Map an existing segment described by *manifest* (non-owner).

        A manifest the segment cannot hold closes the handle again
        before the exception propagates.
        """
        name, entries = manifest
        views: Dict[str, Any] = {}
        # Attaching re-registers the name with the resource tracker
        # shared by the whole process tree (harmless set.add); whoever
        # ends up calling unlink() performs the single matching
        # unregister, so no extra untrack here.
        segment = _shared_memory_module().SharedMemory(name=name)
        try:
            for key, dtype, n, off in entries:
                views[key] = np.ndarray(
                    (n,), dtype=dtype, buffer=segment.buf, offset=off
                )
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
        return int(self._segment.size)

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
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass

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
    "columnar_arrays",
    "shm_enabled",
    "sweep_orphan_segments",
]
