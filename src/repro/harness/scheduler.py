"""Shard-aware distributed sweep scheduler with lease-based orphan recovery.

The parallel executor in :mod:`repro.harness.runner` funnels every
record through one parent — one journal writer, one failure domain.
This module removes that bottleneck for multi-process (and, by design,
multi-host-on-shared-storage) sweeps while keeping the crash-resume
guarantees: workers can be SIGKILLed, hang, or die mid-cell, and the
sweep still converges to records bit-identical to a serial run.

Coordination is entirely filesystem-based — no sockets, no queues, no
``fcntl`` locks (see DESIGN.md for why atomic create/rename beats
advisory locking, especially on NFS).  Next to the journal base path
``J`` live::

    J.shard00, J.shard01, ...   one RunJournal per worker (single writer
                                each; merged on read with key dedupe)
    J.leases/<hash>.lease       atomic O_EXCL claim of one cell, carrying
                                owner pid/host + a heartbeat timestamp,
                                refreshed by temp-file + atomic rename
    J.leases/<hash>.attempts    how often the cell was orphaned (lease
                                reclaimed); preserved attempt accounting
    J.done/<hash>.done          completion marker (content = cell key)
    J.events.jsonl              supervisor-owned recovery-event log

Lifecycle of one cell: a worker finds no done marker, creates the lease
with ``O_CREAT | O_EXCL`` (the atomic claim), runs the cell while a
background thread refreshes the heartbeat, appends the record to its own
shard, publishes the done marker, and releases the lease.  The
supervisor loop detects **orphaned** cells — a lease whose owner pid is
dead (SIGKILLed worker) or whose heartbeat expired (hung worker; the
worker is SIGKILLed first so it can never wake up and double-write) —
reclaims them by bumping the attempts file and deleting the lease, and
lets the surviving workers re-claim.  A cell orphaned more often than
the retry policy allows is recorded as failed instead of crash-looping
the fleet.

Records are deduplicated on merge (first shard in sorted order wins):
the only way a cell appears twice is the benign crash window between a
durable shard append and the done marker, and both records were computed
from the same :func:`~repro.harness.runner.cell_seed`.  Shards and the
event log are appended, and heartbeats, attempts, and done markers
published, through :mod:`repro.durable`.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.durable import (
    EventLog,
    atomic_write_bytes,
    load_event_segments,
    read_log,
)
from repro.exceptions import ExperimentError
from repro.harness.journal import (
    RunJournal,
    cell_key,
    config_fingerprint,
)
from repro.harness.results import ResultTable, RunRecord

__all__ = [
    "ShardPaths",
    "Lease",
    "cell_hash",
    "try_acquire_lease",
    "read_lease",
    "release_lease",
    "scan_stale_leases",
    "read_attempts",
    "bump_attempts",
    "suppress_heartbeats",
    "load_recovery_events",
    "merge_shard_records",
    "run_sharded_experiment",
]

# How many times a cell may be orphaned (worker died or hung while
# holding its lease) before it is recorded as failed, when no retry
# policy pins the bound.
DEFAULT_ORPHAN_ATTEMPTS = 3

# Supervisor poll cadence and worker idle backoff.
_SUPERVISOR_POLL_SECONDS = 0.1
_WORKER_IDLE_SECONDS = 0.2

# Fault hook (see repro.faults "stale_lease"): while True, heartbeat
# threads stop refreshing leases, so a perfectly alive worker looks hung
# to the supervisor.  Per-process, like every fault.
_HEARTBEATS_SUPPRESSED = False


def suppress_heartbeats(flag: bool = True) -> None:
    """Stop (or resume) this process's lease heartbeats — fault hook."""
    global _HEARTBEATS_SUPPRESSED
    _HEARTBEATS_SUPPRESSED = bool(flag)


def cell_hash(key: str) -> str:
    """Filesystem-safe fixed-length name for one cell key."""
    return hashlib.blake2b(key.encode("utf-8"), digest_size=12).hexdigest()


# ----------------------------------------------------------------------
# On-disk layout


class ShardPaths:
    """Every path the scheduler derives from one journal base path."""

    def __init__(self, base: Union[str, Path], shards: int):
        self.base = Path(base)
        self.shards = int(shards)

    def shard(self, index: int) -> Path:
        return self.base.with_name(f"{self.base.name}.shard{index:02d}")

    def existing_shards(self) -> List[Path]:
        """Every shard file on disk, not just the current shard count.

        A sweep resumed with a different ``--shards`` must still see the
        previous run's records.
        """
        pattern = f"{self.base.name}.shard*"
        return sorted(self.base.parent.glob(pattern))

    @property
    def lease_dir(self) -> Path:
        return self.base.with_name(f"{self.base.name}.leases")

    @property
    def done_dir(self) -> Path:
        return self.base.with_name(f"{self.base.name}.done")

    @property
    def events_path(self) -> Path:
        return self.base.with_name(f"{self.base.name}.events.jsonl")

    def ensure_dirs(self) -> None:
        self.base.parent.mkdir(parents=True, exist_ok=True)
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        self.done_dir.mkdir(parents=True, exist_ok=True)


# ----------------------------------------------------------------------
# Leases


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one cell, as read back from disk.

    ``heartbeat`` is a wall-clock timestamp (cross-process comparable).
    A lease file caught mid-write (claimed but content not yet visible)
    parses into a Lease with unknown pid and the file mtime as its
    heartbeat — present is present; staleness judgments still apply.
    """

    key: str
    pid: int
    host: str
    attempt: int
    acquired_at: float
    heartbeat: float

    def to_json(self) -> str:
        return json.dumps({
            "key": self.key, "pid": self.pid, "host": self.host,
            "attempt": self.attempt, "acquired_at": self.acquired_at,
            "heartbeat": self.heartbeat,
        }, sort_keys=True)


def lease_path(lease_dir: Path, key: str) -> Path:
    return Path(lease_dir) / f"{cell_hash(key)}.lease"


def try_acquire_lease(lease_dir: Path, key: str,
                      attempt: int = 1) -> Optional[Path]:
    """Atomically claim a cell; ``None`` if someone already holds it.

    The claim itself is the ``O_CREAT | O_EXCL`` create — two workers
    racing get exactly one winner from the filesystem, with no lock
    server and no advisory-lock caveats.  The content write that follows
    is not atomic, which is why :func:`read_lease` tolerates a
    mid-write file.
    """
    path = lease_path(lease_dir, key)
    now = time.time()
    lease = Lease(key=key, pid=os.getpid(), host=socket.gethostname(),
                  attempt=int(attempt), acquired_at=now, heartbeat=now)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return None
    try:
        os.write(fd, lease.to_json().encode("utf-8"))
    finally:
        os.close(fd)
    return path


def refresh_lease(path: Path, key: str, attempt: int,
                  acquired_at: float) -> None:
    """Publish a fresh heartbeat via temp-file + atomic rename.

    A reader (the supervisor judging staleness) sees either the old
    complete lease or the new complete lease, never a torn one — the
    reason heartbeats rewrite rather than append or touch-in-place.
    """
    lease = Lease(key=key, pid=os.getpid(), host=socket.gethostname(),
                  attempt=int(attempt), acquired_at=acquired_at,
                  heartbeat=time.time())
    try:
        atomic_write_bytes(path, lease.to_json().encode("utf-8"),
                           fsync=False)
    except OSError:
        # Lease may have been reclaimed under us; the run loop handles
        # the consequences (duplicate records dedupe on merge).
        pass


def read_lease(path: Path) -> Optional[Lease]:
    """Parse a lease file; mid-write or foreign content degrades gracefully."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError:
        return None  # vanished (released/reclaimed) between list and read
    try:
        data = json.loads(raw)
        return Lease(
            key=str(data["key"]), pid=int(data["pid"]),
            host=str(data["host"]), attempt=int(data.get("attempt", 1)),
            acquired_at=float(data.get("acquired_at", 0.0)),
            heartbeat=float(data.get("heartbeat", 0.0)),
        )
    except (ValueError, KeyError, TypeError):
        # Claimed but content not yet (fully) written: fall back to the
        # file's mtime as the heartbeat so a crash exactly there still
        # goes stale and gets reclaimed.
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        return Lease(key="", pid=-1, host="", attempt=1,
                     acquired_at=mtime, heartbeat=mtime)


def release_lease(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass  # already reclaimed; merge-time dedupe covers the rest


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknowable: do not declare death on a whim
    return True


def scan_stale_leases(lease_dir: Path, timeout_seconds: float
                      ) -> List[Tuple[Path, Lease, str]]:
    """Leases whose owner is provably dead or silent past the timeout.

    A dead pid (same host only — a foreign host's pids mean nothing
    here) is stale immediately; an alive-or-remote owner is stale only
    once its heartbeat is older than ``timeout_seconds``.
    """
    stale = []
    here = socket.gethostname()
    now = time.time()
    for path in sorted(Path(lease_dir).glob("*.lease")):
        lease = read_lease(path)
        if lease is None:
            continue
        if lease.host == here and not _pid_alive(lease.pid):
            stale.append((path, lease, "dead_pid"))
        elif now - lease.heartbeat > timeout_seconds:
            stale.append((path, lease, "expired_heartbeat"))
    return stale


# ----------------------------------------------------------------------
# Orphan-attempt accounting


def attempts_path(lease_dir: Path, key: str) -> Path:
    return Path(lease_dir) / f"{cell_hash(key)}.attempts"


def read_attempts(lease_dir: Path, key: str) -> int:
    """How many attempts this cell has already burned by being orphaned."""
    try:
        return int(attempts_path(lease_dir, key).read_text().strip())
    except (OSError, ValueError):
        return 0


def bump_attempts(lease_dir: Path, key: str) -> int:
    """Record one more orphaned attempt; returns the new total."""
    total = read_attempts(lease_dir, key) + 1
    try:
        atomic_write_bytes(attempts_path(lease_dir, key),
                           f"{total}\n".encode("utf-8"), fsync=False)
    except OSError:
        pass
    return total


# ----------------------------------------------------------------------
# Heartbeats


class _HeartbeatThread(threading.Thread):
    """Background refresher for every lease this process holds.

    Daemonic: if the worker dies, the heartbeat dies with it — which is
    precisely the signal the supervisor keys staleness off.
    """

    def __init__(self, interval_seconds: float):
        super().__init__(name="lease-heartbeat", daemon=True)
        self.interval = max(float(interval_seconds), 0.05)
        self._lock = threading.Lock()
        self._held: Dict[Path, Tuple[str, int, float]] = {}
        self._stop = threading.Event()

    def track(self, path: Path, key: str, attempt: int,
              acquired_at: float) -> None:
        with self._lock:
            self._held[path] = (key, attempt, acquired_at)

    def untrack(self, path: Path) -> None:
        with self._lock:
            self._held.pop(path, None)

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            if _HEARTBEATS_SUPPRESSED:
                continue
            with self._lock:
                held = list(self._held.items())
            for path, (key, attempt, acquired_at) in held:
                refresh_lease(path, key, attempt, acquired_at)


# ----------------------------------------------------------------------
# Recovery-event log


def load_recovery_events(journal_base: Union[str, Path]
                         ) -> List[Dict[str, object]]:
    """The scheduler's recovery events for one journal base path.

    Reads across rotated segments (oldest first) and the live file, and
    tolerates a truncated trailing line in any of them.
    """
    return load_event_segments(ShardPaths(journal_base, 1).events_path)


# ----------------------------------------------------------------------
# Cell enumeration and shard merging


@dataclass(frozen=True)
class _Cell:
    key: str
    dataset: str
    noise_type: str
    level: float
    rep: int
    algorithm: str

    @property
    def instance(self) -> Tuple[str, str, float, int]:
        return (self.dataset, self.noise_type, self.level, self.rep)


def _enumerate_cells(config, graphs) -> List[_Cell]:
    """Every cell of the sweep, in the serial runner's deterministic order."""
    cells = []
    for dataset in graphs:
        for noise_type in config.noise_types:
            for level in config.noise_levels:
                for rep in range(config.repetitions):
                    for name in config.algorithms:
                        cells.append(_Cell(
                            key=cell_key(dataset, noise_type, level, rep,
                                         name),
                            dataset=dataset, noise_type=noise_type,
                            level=float(level), rep=int(rep),
                            algorithm=str(name),
                        ))
    return cells


def merge_shard_records(paths: ShardPaths, fingerprint: Optional[str]
                        ) -> Dict[str, RunRecord]:
    """All shards merged with per-key dedupe (first shard in sorted order
    wins; duplicates only arise from the append-vs-done-marker crash
    window and were computed from the same deterministic seed)."""
    merged: Dict[str, RunRecord] = {}
    for shard_path in paths.existing_shards():
        # read_log never truncates: another worker may still be appending
        # to this shard, and the owner repairs its own torn tail on reopen.
        for entry in read_log(shard_path)[0]:
            kind = entry.get("kind")
            if kind == "header":
                theirs = entry.get("fingerprint")
                if (fingerprint is not None and theirs is not None
                        and theirs != fingerprint):
                    raise ExperimentError(
                        f"journal shard {shard_path} was written for a "
                        "different experiment configuration (fingerprint "
                        f"{theirs} != {fingerprint}); use a fresh journal "
                        "path"
                    )
            elif kind == "record" and entry["key"] not in merged:
                merged[entry["key"]] = RunRecord.from_dict(entry["record"])
    return merged


# ----------------------------------------------------------------------
# Done markers


def _done_path(paths: ShardPaths, key: str) -> Path:
    return paths.done_dir / f"{cell_hash(key)}.done"


def _publish_done(paths: ShardPaths, key: str) -> None:
    try:
        atomic_write_bytes(_done_path(paths, key),
                           (key + "\n").encode("utf-8"), fsync=False)
    except OSError:
        pass  # worst case the cell is re-run; merge dedupes


def _read_done_keys(paths: ShardPaths) -> set:
    keys = set()
    for path in paths.done_dir.glob("*.done"):
        try:
            keys.add(path.read_text(encoding="utf-8").strip())
        except OSError:
            continue
    return keys


# ----------------------------------------------------------------------
# Worker


def _orphaned_failure(cell: _Cell, config, attempts: int) -> RunRecord:
    return RunRecord(
        algorithm=cell.algorithm, dataset=cell.dataset,
        noise_type=cell.noise_type, noise_level=cell.level,
        repetition=cell.rep, assignment=config.assignment, measures={},
        similarity_time=0.0, assignment_time=0.0, failed=True,
        error=(f"ExperimentError: cell orphaned {attempts} times (its "
               "worker died or hung mid-cell on every attempt); giving up"),
        attempts=attempts,
    )


def _orphan_attempt_limit(config) -> int:
    policy = getattr(config, "retry_policy", None)
    if policy is not None:
        return int(policy.max_attempts)
    return DEFAULT_ORPHAN_ATTEMPTS


class _GracefulExit(SystemExit):
    """Raised by the worker's SIGTERM handler to unwind cleanly.

    A ``SystemExit`` subclass so an un-caught drain still exits the
    process with code 0, while the per-cell handler can distinguish a
    drain (account the burned attempt, release the lease) from a crash.
    """

    def __init__(self):
        super().__init__(0)


def _install_worker_sigterm_handler():
    """Route SIGTERM through :class:`_GracefulExit`; returns the previous
    handler, or ``None`` when installation is impossible (not the main
    thread — e.g. a worker body driven in-process by a test)."""

    def _on_sigterm(_signum, _frame):
        raise _GracefulExit()

    try:
        return signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        return None


def _shard_worker_main(shard_index: int, base: str, config, graphs,
                       factory, fingerprint: str) -> None:
    """Worker body: claim → run → journal → done-marker → release, forever.

    Self-directed: the worker walks the full deterministic cell list
    (rotated by shard index so workers start in different regions and
    rarely contend on a lease) and claims whatever is neither done nor
    leased.  It exits when every cell has a done marker, or when its
    supervisor disappears (``getppid() == 1`` — an orphaned worker must
    not soldier on against a sweep nobody owns).

    SIGTERM drains the worker gracefully: the handler unwinds the run
    loop, the burned attempt is tombstoned, and the held lease is
    released cleanly — so a supervisor ``terminate()`` (or an operator's
    kill) leaves nothing for stale-lease reclaim to clean up.  SIGKILL
    remains the covered-by-reclaim death path.
    """
    from contextlib import ExitStack

    from repro.cache import ArtifactCache, artifact_cache, caching
    from repro.harness.runner import _execute_cell, cell_seed

    previous_sigterm = _install_worker_sigterm_handler()
    paths = ShardPaths(base, int(getattr(config, "shards", 1)))
    journal = RunJournal(paths.shard(shard_index), fingerprint=fingerprint)
    use_cache = bool(getattr(config, "cache", False)) or \
        getattr(config, "cache_dir", None) is not None
    disk = None
    if getattr(config, "cache_dir", None):
        from repro.cache_disk import DiskArtifactCache
        disk = DiskArtifactCache(config.cache_dir)
    cells = _enumerate_cells(config, graphs)
    if not cells:
        journal.close()
        return
    offset = (shard_index * len(cells)) // max(int(config.shards), 1)
    order = cells[offset:] + cells[:offset]
    lease_timeout = float(getattr(config, "lease_timeout_seconds", 30.0))
    heartbeat = _HeartbeatThread(interval_seconds=lease_timeout / 5.0)
    heartbeat.start()
    limit = _orphan_attempt_limit(config)
    base_seed = int(config.seed)
    last_instance: Optional[Tuple] = None
    last_pair = None
    try:
        while True:
            if os.getppid() == 1:
                return  # supervisor is gone; stop claiming work
            any_progress = False
            all_done = True
            for cell in order:
                if _done_path(paths, cell.key).exists():
                    continue
                if cell.key in journal:
                    # Crash window from a previous incarnation of this
                    # shard: record durable, marker missing.
                    _publish_done(paths, cell.key)
                    any_progress = True
                    continue
                all_done = False
                if os.getppid() == 1:
                    return
                prior = read_attempts(paths.lease_dir, cell.key)
                claim = try_acquire_lease(paths.lease_dir, cell.key,
                                          attempt=prior + 1)
                if claim is None:
                    continue  # someone else holds it
                acquired_at = time.time()
                heartbeat.track(claim, cell.key, prior + 1, acquired_at)
                try:
                    if prior >= limit:
                        record = _orphaned_failure(cell, config, prior)
                    else:
                        seed = cell_seed(base_seed, cell.dataset,
                                         cell.noise_type, cell.level,
                                         cell.rep)
                        if last_instance != cell.instance:
                            last_pair = factory(graphs[cell.dataset],
                                                cell.noise_type, cell.level,
                                                seed)
                            last_instance = cell.instance
                        with ExitStack() as scope:
                            if use_cache:
                                scope.enter_context(caching(True))
                                scope.enter_context(artifact_cache(
                                    ArtifactCache(backing=disk)))
                            record = _execute_cell(
                                config, cell.algorithm, last_pair,
                                cell.dataset, cell.rep, seed)
                        if prior:
                            record = replace(
                                record, attempts=record.attempts + prior)
                    journal.append(cell.key, record)
                    _publish_done(paths, cell.key)
                except _GracefulExit:
                    # Drained mid-cell: tombstone the burned attempt so
                    # the orphan bound still holds, then unwind; the
                    # finally below releases the lease cleanly.
                    bump_attempts(paths.lease_dir, cell.key)
                    raise
                finally:
                    heartbeat.untrack(claim)
                    release_lease(claim)
                any_progress = True
            if all_done:
                return
            if not any_progress:
                # Everything left is leased elsewhere; wait for either a
                # completion or a supervisor reclaim.
                time.sleep(_WORKER_IDLE_SECONDS)
    except BaseException:
        # A worker must never take the whole fleet down through an
        # exception escaping to multiprocessing's default handler with
        # leases still held; release and let the supervisor reclaim the
        # attempt accounting as usual.
        raise
    finally:
        heartbeat.stop()
        journal.close()
        if previous_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, previous_sigterm)
            except (ValueError, TypeError):
                pass


# ----------------------------------------------------------------------
# Supervisor


def _progress_message(key: str) -> str:
    dataset, noise_type, level, rep, name = key.split("|")
    return f"{dataset} {noise_type} {float(level):.2f} rep{rep} {name}"


def run_sharded_experiment(
    config,
    graphs: Dict[str, object],
    factory: Callable,
    progress: Optional[Callable[[str], None]],
    journal: Union[str, Path],
) -> ResultTable:
    """Run the sweep across ``config.shards`` lease-coordinated workers.

    The supervisor never executes cells; it spawns workers, watches
    their liveness, reclaims orphaned leases (killing provably hung
    owners first), respawns dead workers while work remains, and records
    every recovery event to ``<journal>.events.jsonl``.  Returns the
    merged table once every cell has a durable record in some shard.
    """
    import multiprocessing as mp

    if isinstance(journal, RunJournal):
        raise ExperimentError(
            "sharded sweeps take a journal *path* (each worker opens its "
            "own shard next to it), not an open RunJournal"
        )
    n_shards = int(config.shards)
    paths = ShardPaths(journal, n_shards)
    paths.ensure_dirs()
    fingerprint = config_fingerprint(config)
    events = EventLog(paths.events_path)
    cells = _enumerate_cells(config, graphs)
    cell_keys = {cell.key for cell in cells}
    lease_timeout = float(getattr(config, "lease_timeout_seconds", 30.0))

    # Resume: records from previous incarnations count as done.
    merged = merge_shard_records(paths, fingerprint)
    resumed = set()
    for key in merged:
        if key in cell_keys:
            _publish_done(paths, key)
            resumed.add(key)

    # Leases left behind by a crashed previous run: reclaim the provably
    # dead ones right away so the fresh fleet is never blocked on them.
    for path, lease, reason in scan_stale_leases(paths.lease_dir,
                                                 lease_timeout):
        attempts = bump_attempts(paths.lease_dir, lease.key) \
            if lease.key else 0
        events.record("lease_reclaimed", key=lease.key, pid=lease.pid,
                      reason=reason, attempts=attempts, at_startup=True)
        release_lease(path)

    ctx = (mp.get_context("fork")
           if "fork" in mp.get_all_start_methods() else mp.get_context())

    def spawn(index: int):
        worker = ctx.Process(
            target=_shard_worker_main,
            args=(index, str(paths.base), config, graphs, factory,
                  fingerprint),
        )
        worker.start()
        return worker

    def respawn(index: int) -> None:
        worker = workers[index]
        worker.join()
        events.record("worker_respawned", shard=index,
                      exit_code=worker.exitcode)
        workers[index] = spawn(index)

    workers = {index: spawn(index) for index in range(n_shards)}
    reported = set(resumed)
    try:
        while True:
            done_keys = _read_done_keys(paths) & cell_keys
            if progress is not None:
                for key in sorted(done_keys - reported):
                    progress(_progress_message(key))
                    reported.add(key)
            else:
                reported |= done_keys
            if len(done_keys) >= len(cell_keys):
                break

            for path, lease, reason in scan_stale_leases(paths.lease_dir,
                                                         lease_timeout):
                killed = None
                if reason == "expired_heartbeat" and lease.pid > 0 \
                        and lease.host == socket.gethostname() \
                        and _pid_alive(lease.pid):
                    # A hung-but-alive worker must die *before* its lease
                    # is handed to someone else, or it could wake up and
                    # append a second copy (harmless for records, but a
                    # second live writer on one shard is not).
                    try:
                        os.kill(lease.pid, signal.SIGKILL)
                    except OSError:
                        pass
                    killed = next((index for index, worker in workers.items()
                                   if worker.pid == lease.pid), None)
                attempts = bump_attempts(paths.lease_dir, lease.key) \
                    if lease.key else 0
                events.record("lease_reclaimed", key=lease.key,
                              pid=lease.pid, reason=reason,
                              attempts=attempts)
                release_lease(path)
                if killed is not None:
                    # Respawn in this same pass: the surviving shards may
                    # finish every other cell before the next poll would
                    # notice the death, but the cell just reclaimed is
                    # still pending, so the replacement has work to claim.
                    respawn(killed)

            for index, worker in list(workers.items()):
                if not worker.is_alive():
                    respawn(index)
            time.sleep(_SUPERVISOR_POLL_SECONDS)

        for worker in workers.values():
            worker.join(timeout=2 * lease_timeout)
    finally:
        for worker in workers.values():
            if worker.is_alive():
                worker.terminate()
                worker.join()
        events.close()

    final = merge_shard_records(paths, fingerprint)
    table = ResultTable()
    missing = []
    for cell in cells:
        record = final.get(cell.key)
        if record is None:
            missing.append(cell.key)
        else:
            table.add(record)
    if missing:
        raise ExperimentError(
            f"sharded sweep finished with {len(missing)} cells missing "
            f"from every shard (first: {missing[0]}); the journal shards "
            "and done markers disagree — rerun to resume"
        )
    return table
