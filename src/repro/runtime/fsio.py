"""Process-safe filesystem primitives: atomic writes, appends, locks.

Every durable artifact in the repo — checkpoint snapshots, campaign
snapshots, cache records, results-store records — needs the same two
guarantees once *concurrent processes* share a directory:

* **atomic replace**: a reader never observes a torn file.  The write
  goes to a uniquely named temporary in the same directory (so the
  rename cannot cross filesystems and two writers can never collide on
  the temp name), is flushed and ``fsync``'d, and is ``os.replace``'d
  into place.  A crash at any instant leaves either the old file or the
  new one.  Logs that grow by one record at a time (the campaign
  journal) use :func:`append_durable` instead: one ``write`` of the
  whole record, then ``fsync`` — a crash leaves at most a torn tail,
  which the log's own per-record checksum lets its reader detect.
* **advisory locking**: cooperating writers (e.g. two campaigns sharing
  one result cache) serialize through an ``flock(2)`` on a sidecar
  file.  ``flock`` locks die with the process that holds them, so a
  killed campaign can never wedge its siblings.  Platforms without
  ``fcntl`` degrade to a no-op lock — the atomic-replace guarantee
  alone still keeps every record readable, it just stops deduplicating
  concurrent work.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

try:
    import fcntl
except ImportError:         # non-POSIX platforms
    fcntl = None

__all__ = ["atomic_write_bytes", "atomic_write_text", "append_durable",
           "fsync_dir", "FileLock", "HAVE_FLOCK"]

#: Whether real inter-process locking is available on this platform.
HAVE_FLOCK = fcntl is not None


def atomic_write_bytes(path, data: bytes, *, fsync: bool = True,
                       sync_dir: bool = False) -> Path:
    """Write ``data`` to ``path`` atomically (tmp + fsync + replace).

    The temporary name is unique per writer (``mkstemp``), so any
    number of processes may race on the same target: the last
    ``os.replace`` wins and every intermediate state is a complete
    file.  ``sync_dir=True`` additionally fsyncs the parent directory
    (best-effort) so the rename itself is durable across power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if sync_dir:
        fsync_dir(path.parent)
    return path


def atomic_write_text(path, text: str, *, fsync: bool = True,
                      sync_dir: bool = False) -> Path:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync,
                              sync_dir=sync_dir)


def append_durable(path, data: bytes) -> None:
    """Append ``data`` to ``path`` (created when missing) and ``fsync``.

    The file is opened ``O_APPEND`` and ``data`` goes down in one
    ``write`` (looping only on a short write), so the record is on disk
    when this returns and a crash mid-call can only tear the tail.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(directory) -> None:
    """Best-effort directory fsync (some filesystems refuse the fd)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class FileLock:
    """Advisory exclusive inter-process lock on a sidecar file.

    ``flock(2)``-based: automatically released when the holding process
    exits (cleanly or not), so a crashed holder can never deadlock its
    peers.  Re-entrant acquisition on one instance is a programming
    error and raises.  Where ``fcntl`` is unavailable the lock degrades
    to an always-granted no-op (see module docstring).

    Usable as a context manager (blocking acquire) or through
    :meth:`acquire`/:meth:`release` for the non-blocking protocol::

        lk = FileLock(path)
        if lk.acquire(blocking=False):
            try: ...
            finally: lk.release()
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fd: int | None = None

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._fd is not None

    def acquire(self, blocking: bool = True) -> bool:
        """Take the lock; returns ``False`` only for a contended
        non-blocking attempt."""
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path} is already held by "
                               f"this instance")
        if fcntl is None:
            self._fd = -1       # no-op lock: pretend-held
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
        except (BlockingIOError, InterruptedError):
            os.close(fd)
            return False
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        return True

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is None or fd < 0:
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()
