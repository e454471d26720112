"""Durable on-disk request queue for the alignment service.

The queue persists every accepted request and coordinates its execution
with exactly the primitives the distributed scheduler already proved
under chaos (:mod:`repro.harness.scheduler`): ``O_CREAT | O_EXCL`` lease
files claim a request atomically, heartbeat-stale or dead-pid leases are
reclaimed so a SIGKILLed worker's request is **re-leased, not lost**,
``.attempts`` tombstones preserve how often a request burned an
execution, and done markers make completion idempotent across crashes.

Layout under the queue root::

    requests/<key>.req    pickled request payload, atomically published
    leases/<key>.lease    scheduler lease (pid + host + heartbeat)
    leases/<key>.attempts orphan-attempt tombstone
    done/<key>.done       completion marker (content = ticket key)

**Admission control** is a hard bound on backlog: :meth:`enqueue`
raises :class:`QueueFull` once ``depth()`` (accepted requests without a
done marker) reaches ``max_depth`` — *except* for keys already enqueued,
because a duplicate of an accepted request is the same request and must
never be bounced.  An accepted request file is never deleted by the
queue; completion is recorded by the done marker, so restarts recover
the full backlog from the directory alone.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.durable import atomic_write_bytes
from repro.exceptions import ExperimentError
from repro.harness.scheduler import (
    bump_attempts,
    lease_path,
    read_attempts,
    read_lease,
    release_lease,
    scan_stale_leases,
    try_acquire_lease,
)
from repro.service.tickets import ticket_key

__all__ = ["QueueFull", "AlignmentRequest", "DurableRequestQueue"]

DEFAULT_MEASURES: Tuple[str, ...] = ("s3", "mnc", "ec", "ics")


class QueueFull(ExperimentError):
    """The queue's backlog bound rejected a new request.

    Carries ``depth``/``max_depth`` so the service front-end can turn it
    into a retry-after answer.
    """

    def __init__(self, depth: int, max_depth: int):
        super().__init__(
            f"request queue is full ({depth}/{max_depth} accepted requests "
            "outstanding); retry after the backlog drains"
        )
        self.depth = int(depth)
        self.max_depth = int(max_depth)


@dataclass(frozen=True)
class AlignmentRequest:
    """One submit-a-pair request, self-contained and picklable.

    ``ground_truth`` is optional: without it the default measure set
    sticks to the topology-only scores (S3, MNC, EC, ICS); with it the
    caller may ask for ``accuracy`` too.  ``deadline_seconds`` is wall
    time from submission; the service maps what remains of it onto a
    :class:`~repro.harness.budget.CellBudget` when the request finally
    runs, and expires tickets whose deadline passed while queued.
    """

    source: object  # repro.graphs.Graph
    target: object
    algorithm: str
    params: Dict[str, object] = field(default_factory=dict)
    assignment: str = "jv"
    measures: Sequence[str] = DEFAULT_MEASURES
    seed: int = 0
    ground_truth: Optional[np.ndarray] = None
    deadline_seconds: Optional[float] = None

    def key(self) -> str:
        """The request's content-addressed ticket key."""
        truth_digest = None
        if self.ground_truth is not None:
            truth = np.asarray(self.ground_truth, dtype=np.int64)
            truth_digest = truth.tobytes()
        return ticket_key(
            self.source.content_digest(),
            self.target.content_digest(),
            self.algorithm,
            params=dict(self.params),
            assignment=self.assignment,
            measures=tuple(str(m) for m in self.measures),
            seed=int(self.seed),
            ground_truth_digest=truth_digest,
        )

    def to_payload(self) -> bytes:
        """Pickled on-disk form (graphs included; requests are the
        durable unit a restarted service re-runs from)."""
        return pickle.dumps({
            "source": self.source,
            "target": self.target,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "assignment": self.assignment,
            "measures": tuple(self.measures),
            "seed": int(self.seed),
            "ground_truth": self.ground_truth,
            "deadline_seconds": self.deadline_seconds,
        }, protocol=4)

    @classmethod
    def from_payload(cls, blob: bytes) -> "AlignmentRequest":
        data = pickle.loads(blob)
        return cls(**data)


class DurableRequestQueue:
    """Crash-safe queue of accepted alignment requests.

    Multi-process safe by construction: payloads publish via temp-file +
    atomic rename, claims are ``O_EXCL`` lease creates, and every reader
    tolerates files vanishing between list and read.  One queue
    directory may be shared by any number of submitters and servers.
    """

    def __init__(self, root: Union[str, Path], max_depth: int = 256,
                 lease_timeout_seconds: float = 30.0):
        if int(max_depth) < 1:
            raise ExperimentError(
                f"max_depth must be >= 1, got {max_depth}"
            )
        self.root = Path(root)
        self.max_depth = int(max_depth)
        self.lease_timeout_seconds = float(lease_timeout_seconds)
        self.requests_dir = self.root / "requests"
        self.lease_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        for directory in (self.requests_dir, self.lease_dir, self.done_dir):
            directory.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def request_path(self, key: str) -> Path:
        return self.requests_dir / f"{key}.req"

    def done_path(self, key: str) -> Path:
        return self.done_dir / f"{key}.done"

    # -- admission ---------------------------------------------------------

    def depth(self) -> int:
        """Accepted requests not yet finished (the backlog)."""
        pending = 0
        for path in self.requests_dir.glob("*.req"):
            if not self.done_path(path.stem).exists():
                pending += 1
        return pending

    def enqueue(self, request: AlignmentRequest,
                key: Optional[str] = None) -> Tuple[str, bool]:
        """Durably accept one request; ``(key, newly_enqueued)``.

        An already-enqueued key is re-accepted for free at any depth
        (idempotent duplicate).  A genuinely new request is bounced with
        :class:`QueueFull` when the backlog is at ``max_depth`` —
        *before* anything is written, so a rejected request leaves no
        trace to clean up.
        """
        key = key or request.key()
        path = self.request_path(key)
        if path.exists():
            return key, False
        backlog = self.depth()
        if backlog >= self.max_depth:
            raise QueueFull(backlog, self.max_depth)
        atomic_write_bytes(path, request.to_payload())
        return key, True

    def load_request(self, key: str) -> AlignmentRequest:
        """The durable payload for one accepted key.

        Raises :class:`ExperimentError` when the payload is missing or
        unreadable — the caller fails the ticket with that reason rather
        than crashing the service.
        """
        path = self.request_path(key)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise ExperimentError(
                f"request payload for ticket {key} is missing or unreadable "
                f"({type(exc).__name__})"
            )
        try:
            return AlignmentRequest.from_payload(blob)
        except Exception as exc:
            raise ExperimentError(
                f"request payload for ticket {key} failed to deserialize "
                f"({type(exc).__name__}: {exc})"
            )

    # -- enumeration -------------------------------------------------------

    def accepted_keys(self) -> List[str]:
        """Every key with a durable request payload, finished or not."""
        return sorted(path.stem for path in self.requests_dir.glob("*.req"))

    def pending_keys(self) -> List[str]:
        """Accepted keys without a done marker, oldest payload first."""
        entries = []
        for path in self.requests_dir.glob("*.req"):
            if self.done_path(path.stem).exists():
                continue
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # vanished between list and stat
            entries.append((mtime, path.stem))
        return [key for _, key in sorted(entries)]

    # -- claims ------------------------------------------------------------

    def claim(self, key: str) -> Optional[Path]:
        """Atomically lease one request; ``None`` if someone holds it."""
        prior = read_attempts(self.lease_dir, key)
        return try_acquire_lease(self.lease_dir, key, attempt=prior + 1)

    def release(self, claim: Path) -> None:
        release_lease(claim)

    def holder(self, key: str):
        """The current lease on a key (or ``None``) — observability."""
        return read_lease(lease_path(self.lease_dir, key))

    def attempts(self, key: str) -> int:
        """Orphaned-execution count accumulated by the key so far."""
        return read_attempts(self.lease_dir, key)

    def record_attempt(self, key: str) -> int:
        """Tombstone one more burned execution; returns the new total."""
        return bump_attempts(self.lease_dir, key)

    def reclaim_stale(self) -> List[Tuple[str, int, str]]:
        """Release leases whose owner is dead or silent past the timeout.

        Returns ``(key, attempts, reason)`` per reclaimed lease, with the
        burned attempt already tombstoned — the service re-queues the
        ticket and, past its retry bound, fails it instead of
        crash-looping.  A lease caught mid-write carries no key (the
        file name is a hash); it is still removed, and the key comes
        back empty — ticket reconciliation covers that window.
        """
        reclaimed = []
        for path, lease, reason in scan_stale_leases(
                self.lease_dir, self.lease_timeout_seconds):
            attempts = self.record_attempt(lease.key) if lease.key else 0
            release_lease(path)
            reclaimed.append((lease.key, attempts, reason))
        return reclaimed

    # -- completion --------------------------------------------------------

    def mark_done(self, key: str) -> None:
        """Publish the idempotent completion marker for one key."""
        atomic_write_bytes(self.done_path(key), (key + "\n").encode("utf-8"),
                           fsync=False)

    def is_done(self, key: str) -> bool:
        return self.done_path(key).exists()

    def stats(self) -> Dict[str, int]:
        accepted = len(self.accepted_keys())
        backlog = self.depth()
        return {
            "accepted": accepted,
            "backlog": backlog,
            "finished": accepted - backlog,
            "max_depth": self.max_depth,
            "leased": sum(1 for _ in self.lease_dir.glob("*.lease")),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"DurableRequestQueue({str(self.root)!r}, "
                f"backlog={stats['backlog']}/{self.max_depth})")
