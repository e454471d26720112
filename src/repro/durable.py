"""Crash-safe files: atomic publication and fsynced JSON-lines logs.

Every file the package must keep intact across a crash goes through this
module — sweep journals and their ``.stats`` side-cars, scheduler shard
journals, service ticket segments, recovery-event logs, disk-cache
entries, lease heartbeats and done markers.  One guarantee covers them:

    **a reader never observes a partial write.**  A published file
    (:func:`atomic_write_bytes`) is the old content or the new content,
    never a mix; a log entry (:meth:`AppendLog.append`) is acknowledged
    only once its complete line has been written *and fsynced*, and an
    append that fails is rolled back; a reader (:func:`read_log`) returns
    exactly the complete entries before the first torn or corrupt line —
    the only damage a crash mid-append can leave.

Log format: one ``json.dumps(entry, sort_keys=True)`` object per
``\\n``-terminated line.  Each log has a single writer, the process that
opened it; what the entries *mean* (headers, folds, merge order) stays
with the owning module.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.exceptions import ExperimentError

__all__ = [
    "atomic_write_bytes",
    "AppendLog",
    "EventLog",
    "read_log",
    "event_log_segments",
    "load_event_segments",
]

# Rotation bounds for event logs: a long-lived supervisor or service must
# not grow one append-only file without limit.
DEFAULT_EVENT_LOG_MAX_BYTES = 1 << 20
DEFAULT_EVENT_LOG_SEGMENTS = 8

_TMP_SERIAL = itertools.count()


def _fsync_dir(path: Path) -> None:
    """Make a rename durable; best-effort where directories can't be opened."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, blob: bytes, fsync: bool = True) -> None:
    """Publish ``blob`` at ``path`` via temp file + fsync + atomic rename.

    Readers never observe a partial file: they see either the old content
    or the new, complete content.  The temp file lives in the same
    directory so the rename cannot cross filesystems, and its name is
    unique per call (pid + serial), not just per process — two *threads*
    racing to publish the same path must not share a temp file, or the
    loser renames a file the winner already moved.  ``fsync=False`` keeps
    the atomicity but not the durability (for files a crash may lose,
    such as heartbeats).
    """
    path = Path(path)
    tmp = path.with_name(
        f".{path.name}.{os.getpid()}.{next(_TMP_SERIAL)}.tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(path.parent)


class AppendLog:
    """Single-writer, thread-safe, fsynced JSON-lines append log.

    The process that creates the object owns the log; an append from any
    other pid (an open log that crossed a fork) raises rather than
    interleaving lines with the owner.  :meth:`append` returns only once
    the entry's line is written and fsynced; if writing or fsyncing
    fails, the file is truncated back to where it was and the error is
    raised, so a later append never lands behind a torn line.

    With ``max_bytes`` set, the log rotates: once the live file would
    exceed the bound it is renamed to the next numbered segment
    (``<name>.0001``, ``<name>.0002``, ...) and segments past
    ``max_segments`` are deleted oldest-first, bounding disk use at about
    ``max_bytes * (max_segments + 1)``.  :func:`load_event_segments`
    reads the whole surviving history.
    """

    def __init__(self, path: Union[str, Path], max_bytes: int = 0,
                 max_segments: int = DEFAULT_EVENT_LOG_SEGMENTS):
        self.path = Path(path)
        self.max_bytes = int(max_bytes)
        self.max_segments = max(int(max_segments), 1)
        self._owner_pid = os.getpid()
        self._fd = None
        self._lock = threading.Lock()

    def append(self, entry: Dict) -> None:
        """Durably append one entry as a single line."""
        if os.getpid() != self._owner_pid:
            raise ExperimentError(
                f"log {self.path} is owned by pid {self._owner_pid} but "
                f"append was called from pid {os.getpid()} — an open log "
                "crossed a fork/spawn boundary; each process must open its "
                "own log or stream entries back to the owning process"
            )
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            size = os.fstat(self._fd).st_size
            if self.max_bytes and size and size + len(line) > self.max_bytes:
                self._rotate_locked()
                size = 0
            try:
                view = memoryview(line)
                while view:
                    view = view[os.write(self._fd, view):]
                os.fsync(self._fd)
            except OSError:
                try:
                    os.ftruncate(self._fd, size)
                except OSError:
                    pass
                raise

    def _rotate_locked(self) -> None:
        """Seal the live file as the next numbered segment; compact."""
        os.close(self._fd)
        self._fd = None
        segments = event_log_segments(self.path)
        next_index = 1
        if segments:
            next_index = int(segments[-1].name.rsplit(".", 1)[1]) + 1
        try:
            os.replace(self.path, self.path.with_name(
                f"{self.path.name}.{next_index:04d}"))
        except OSError:
            pass  # rotation is best-effort; appending must go on
        for segment in event_log_segments(self.path)[:-self.max_segments]:
            try:
                segment.unlink()
            except OSError:
                pass
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EventLog(AppendLog):
    """Rotated log of timestamped recovery events — observability only.

    Entries are ``{"kind", "time", "pid", **details}``.  Recording is
    best-effort: an event that cannot be written is dropped, because a
    full or read-only disk must not fail the operation that triggered it.
    """

    def __init__(self, path: Union[str, Path],
                 max_bytes: int = DEFAULT_EVENT_LOG_MAX_BYTES,
                 max_segments: int = DEFAULT_EVENT_LOG_SEGMENTS):
        super().__init__(path, max_bytes, max_segments)

    def record(self, kind: str, **details) -> None:
        entry = {"kind": kind, "time": time.time(), "pid": os.getpid()}
        entry.update(details)
        try:
            self.append(entry)
        except OSError:
            pass


def read_log(path: Union[str, Path]) -> Tuple[List[Dict], int]:
    """``(entries, good_bytes)``: every entry before the first torn line.

    A line is good when it is ``\\n``-terminated and parses as a JSON
    object; reading stops at the first one that is not, and
    ``good_bytes`` is the byte length of the good prefix.  A missing file
    reads as ``([], 0)``.  The file is never modified — a reader may not
    touch a log another process is still appending to; only the owner
    may truncate to ``good_bytes`` before appending again.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    entries: List[Dict] = []
    good_bytes = 0
    for line in raw.splitlines(keepends=True):
        if not line.endswith(b"\n"):
            break  # torn tail from a crash mid-append
        try:
            entry = json.loads(line)
        except ValueError:
            break
        if not isinstance(entry, dict):
            break
        entries.append(entry)
        good_bytes += len(line)
    return entries, good_bytes


def event_log_segments(path: Union[str, Path]) -> List[Path]:
    """Rotated segments of one log, oldest first (live file excluded)."""
    path = Path(path)
    prefix = f"{path.name}."
    found = []
    for candidate in path.parent.glob(f"{path.name}.*"):
        suffix = candidate.name[len(prefix):]
        if suffix.isdigit():
            found.append((int(suffix), candidate))
    return [segment for _, segment in sorted(found)]


def load_event_segments(path: Union[str, Path]) -> List[Dict]:
    """Every entry across rotated segments plus the live file, in order."""
    path = Path(path)
    entries: List[Dict] = []
    for segment in event_log_segments(path) + [path]:
        entries.extend(read_log(segment)[0])
    return entries
