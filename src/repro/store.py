"""Durable records: how bytes reach disk for every on-disk artifact.

The result cache (:mod:`repro.service.cache`), the cell checkpoint
journal (:mod:`repro.experiments.checkpoint`) and the campaign store
(:mod:`repro.service.durability`) are schemas: record encodings,
checksums and acceptance rules.  This module alone decides how their
bytes become durable — atomic replacement, fsynced appends with a
torn-tail guard, ``flock`` sidecars and quarantine — and supplies the
one canonical-JSON digest their keys and checksums are taken with.
What counts as an intact record, and what to do when the disk refuses
a write, stays with each schema.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any, Iterable, List, Optional, Sequence, Union

try:  # pragma: no cover - absent only on non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Subdirectory name under which each artifact parks corrupt files.
QUARANTINE_DIR = "quarantine"


def canonical_sha256(document: Any) -> str:
    """SHA-256 hex digest of *document*'s canonical JSON.

    Sorted keys and no whitespace, so equal documents hash alike however
    their dicts were built.  Journal keys, cache checksums, query and
    scenario fingerprints and campaign ids all hash through these bytes.
    """
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Replace *path* with *data*: readers see the old or the new file.

    The temp file is fsynced *before* the rename — an unsynced rename
    can leave the final name pointing at zero-length or partial data
    after power loss.  Creates the parent directory if missing; on any
    failure the temp file is unlinked and the error (``OSError`` for a
    full or read-only disk) is raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class FileLock:
    """An ``flock`` on a sidecar file, dropped when its process dies.

    Shared acquisition waits out an exclusive holder; exclusive
    acquisition never waits.  Locks conflict across processes and across
    descriptors within one process.  The sidecar is opened read-only, so
    one created by another user still locks.  Without ``flock``
    (non-POSIX) every acquisition succeeds.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._fd: Optional[int] = None

    def acquire(self, shared: bool = False) -> bool:
        """Take the lock; False only when exclusive and held elsewhere.

        Idempotent while held.  Raises ``OSError`` when the sidecar can
        be neither opened nor created.
        """
        if self._fd is not None:
            return True
        fd = os.open(str(self.path), os.O_RDONLY | os.O_CREAT, 0o644)
        if fcntl is not None:
            mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX | fcntl.LOCK_NB
            try:
                fcntl.flock(fd, mode)
            except BlockingIOError:
                os.close(fd)
                return False
            except BaseException:
                os.close(fd)
                raise
        self._fd = fd
        return True

    def release(self) -> None:
        """Drop the lock; idempotent.  The explicit ``LOCK_UN`` releases it
        even while forked children still hold inherited descriptors."""
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


class RecordLog:
    """An append-only file of newline-terminated records.

    The append handle opens on the first append, which also
    creates the directory and takes *lock* (if any) shared *before*
    opening, so a maintenance rewrite that finishes first leaves the
    handle on the new file.  The lock is held until :meth:`close`.
    """

    def __init__(self, path: Union[str, Path], lock: Optional[FileLock] = None):
        self.path = Path(path)
        self._lock = lock
        self._handle: Optional[IO[bytes]] = None

    def append(self, record: bytes) -> None:
        """Write, flush and fsync one record (given without its newline)."""
        self.append_many([record])

    def append_many(self, records: Sequence[bytes]) -> None:
        """Write *records* (each without its newline) in one write, then
        flush and fsync once.

        The bytes are exactly those of one :meth:`append` per record, so
        a crash mid-batch leaves an intact prefix of the batch plus at
        most one torn line.  Raises ``OSError`` when the disk refuses.
        """
        if not records:
            return
        handle = self._handle if self._handle is not None else self._open()
        handle.write(b"".join(record + b"\n" for record in records))
        handle.flush()
        os.fsync(handle.fileno())

    def _open(self) -> IO[bytes]:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._lock is not None:
            self._lock.acquire(shared=True)
        handle = open(self.path, "a+b")
        try:
            # A crash mid-append can leave a torn tail with no newline;
            # appending straight after it would glue the next record
            # onto the torn bytes and lose both.  Terminate the tail so
            # the torn bytes become their own (rejected) line.
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        return handle

    def lines(self) -> List[bytes]:
        """The non-blank lines on disk, in order; raises ``OSError``."""
        return [line for line in self.path.read_bytes().splitlines() if line.strip()]

    def rewrite(self, lines: Iterable[bytes]) -> None:
        """Close the handle, then atomically replace the log with *lines*."""
        self.close()
        atomic_write(self.path, b"".join(line + b"\n" for line in lines))

    def close(self) -> None:
        """Close the append handle and release the lock; idempotent."""
        handle, self._handle = self._handle, None
        try:
            if handle is not None:
                handle.close()
        finally:
            if self._lock is not None:
                self._lock.release()


def quarantine(path: Union[str, Path], pen: Union[str, Path]) -> bool:
    """Move *path* into directory *pen*; True on success.

    Never overwrites earlier evidence: a name already taken in the pen
    gets a ``.1``, ``.2``, … suffix.
    """
    path, pen = Path(path), Path(pen)
    try:
        pen.mkdir(parents=True, exist_ok=True)
        target = pen / path.name
        n = 0
        while target.exists():
            n += 1
            target = pen / f"{path.name}.{n}"
        os.replace(path, target)
    except OSError:
        return False
    return True
