"""Tests for repro.durable: atomic writes, the fsynced append log, the reader."""

import errno
import json
import os
import socket
import sys
import threading
import time

import pytest

from repro.durable import (
    AppendLog,
    EventLog,
    event_log_segments,
    load_event_segments,
    read_log,
)
from repro.exceptions import ExperimentError
from repro.harness import RunJournal, RunRecord
from repro.service.tickets import TicketStore

A = b'{"a": 1}\n'
B = b'{"b": 2}\n'


@pytest.mark.parametrize("content, entries, good_bytes", [
    (None, [], 0),                                    # missing file
    (b"", [], 0),                                     # empty file
    (A + B + b'{"c": ', [{"a": 1}, {"b": 2}], 18),    # torn last line
    (A + b"not json\n" + B, [{"a": 1}], 9),           # corrupt middle line
    (A + b"[1, 2]\n" + B, [{"a": 1}], 9),             # non-object line
    (A + b'{"c": 3}', [{"a": 1}], 9),                 # unterminated tail
    (A + B, [{"a": 1}, {"b": 2}], 18),                # clean file
], ids=["missing", "empty", "torn-tail", "corrupt-middle", "non-object",
        "unterminated", "clean"])
def test_read_log(tmp_path, content, entries, good_bytes):
    path = tmp_path / "log.jsonl"
    if content is not None:
        path.write_bytes(content)
    assert read_log(path) == (entries, good_bytes)
    if content is not None:
        assert path.read_bytes() == content  # readers never repair


class TestAppendLog:
    def test_lines_are_sorted_key_json(self, tmp_path):
        with AppendLog(tmp_path / "sub" / "log.jsonl") as log:
            log.append({"b": 2, "a": [1, "x"]})
        assert (tmp_path / "sub" / "log.jsonl").read_bytes() == \
            b'{"a": [1, "x"], "b": 2}\n'

    def test_one_fsync_per_append(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        with AppendLog(tmp_path / "log.jsonl") as log:
            for index in range(5):
                log.append({"i": index})
                assert len(calls) == index + 1
        assert read_log(tmp_path / "log.jsonl")[0] == \
            [{"i": i} for i in range(5)]

    def test_failed_fsync_raises_and_rolls_back(self, tmp_path,
                                                monkeypatch):
        path = tmp_path / "log.jsonl"
        with AppendLog(path) as log:
            log.append({"kept": True})
            before = path.read_bytes()

            def failing_fsync(fd):
                raise OSError(errno.EIO, "simulated fsync failure")

            monkeypatch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(OSError):
                log.append({"lost": True})
            assert path.read_bytes() == before
            monkeypatch.undo()
            log.append({"after": True})
        assert read_log(path)[0] == [{"kept": True}, {"after": True}]

    def test_append_from_forked_child_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path)
        log.append({"owner": True})
        pid = os.fork()
        if pid == 0:  # child: the append must fail loudly, not interleave
            try:
                log.append({"child": True})
            except ExperimentError as exc:
                message = str(exc)
                ok = (str(os.getpid()) in message
                      and str(os.getppid()) in message
                      and "fork" in message)
                os._exit(0 if ok else 1)
            except BaseException:
                os._exit(2)
            os._exit(3)  # no exception at all
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        log.close()
        assert read_log(path)[0] == [{"owner": True}]

    def test_rotation_bounds(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with AppendLog(path, max_bytes=200, max_segments=3) as log:
            for index in range(100):
                log.append({"i": index, "pad": "x" * 20})
        segments = event_log_segments(path)
        assert 1 <= len(segments) <= 3
        for segment in segments + [path]:
            assert 0 < segment.stat().st_size <= 200
        kept = [entry["i"] for entry in load_event_segments(path)]
        # compaction drops the oldest; what survives is the newest run
        assert kept == list(range(100 - len(kept), 100))

    def test_concurrent_threads_never_tear_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        threads_n, per_thread = 8, 25
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AppendLog(path) as log:
                def writer(tid):
                    for index in range(per_thread):
                        log.append({"t": tid, "i": index})

                threads = [threading.Thread(target=writer, args=(tid,))
                           for tid in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        entries, good_bytes = read_log(path)
        assert good_bytes == path.stat().st_size
        assert sorted((e["t"], e["i"]) for e in entries) == \
            [(t, i) for t in range(threads_n) for i in range(per_thread)]


class TestOwners:
    def test_ticket_fsync_failure_is_not_acknowledged(self, tmp_path,
                                                      monkeypatch):
        store = TicketStore(tmp_path / "tickets")
        store.submit("kept", "isorank")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "simulated fsync failure")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            store.submit("lost", "isorank")
        with pytest.raises(OSError):
            store.transition("kept", "leased")
        assert "lost" not in store
        assert store.get("kept").state == "pending"
        store.refresh()  # nothing unacknowledged reached the segment
        assert "lost" not in store
        assert store.get("kept").state == "pending"
        monkeypatch.undo()
        store.close()
        assert set(t.key for t in TicketStore(tmp_path / "tickets")
                   .tickets()) == {"kept"}

    def test_event_log_drops_event_on_fsync_failure(self, tmp_path,
                                                    monkeypatch):
        def failing_fsync(fd):
            raise OSError(errno.EIO, "simulated fsync failure")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with EventLog(tmp_path / "events.jsonl") as log:
            log.record("lease_reclaimed", key="k")  # must not raise
        assert read_log(tmp_path / "events.jsonl") == ([], 0)


class TestGoldenBytes:
    """The bytes each owner writes are pinned: external readers (and
    older releases) parse these files directly."""

    @pytest.fixture(autouse=True)
    def _frozen_clock(self, monkeypatch):
        monkeypatch.setattr(time, "time", lambda: 1234.5)

    def test_run_journal_lines(self, tmp_path):
        record = RunRecord(
            algorithm="isorank", dataset="pl", noise_type="one-way",
            noise_level=0.02, repetition=1, assignment="jv",
            measures={"accuracy": 0.75}, similarity_time=1.5,
            assignment_time=0.25)
        with RunJournal(tmp_path / "j.jsonl", fingerprint="fp") as journal:
            journal.append("pl|one-way|0.020000|1|isorank", record)
            journal.append_stats("s1", {"mean": 0.5})
        assert (tmp_path / "j.jsonl").read_bytes() == (
            b'{"fingerprint": "fp", "kind": "header", "version": 3}\n'
            b'{"key": "pl|one-way|0.020000|1|isorank", "kind": "record", '
            b'"record": {"algorithm": "isorank", "assignment": "jv", '
            b'"assignment_time": 0.25, "attempts": 1, "dataset": "pl", '
            b'"diagnostics": [], "error": "", "failed": false, '
            b'"measures": {"accuracy": 0.75}, "noise_level": 0.02, '
            b'"noise_type": "one-way", "peak_memory_bytes": 0, '
            b'"repetition": 1, "similarity_time": 1.5, "trace": null}}\n'
            b'{"entry": {"mean": 0.5}, "key": "s1", "kind": "stats"}\n')

    def test_ticket_transition_lines(self, tmp_path):
        with TicketStore(tmp_path / "tickets") as store:
            store.submit("k", "isorank", seed=3)
            store.transition("k", "leased", attempts=1)
        host, pid = socket.gethostname(), os.getpid()
        segment = tmp_path / "tickets" / f"{host}-{pid}.jsonl"
        host_json = json.dumps(host)
        assert segment.read_bytes().decode() == (
            '{"algorithm": "isorank", "assignment": "jv", '
            f'"deadline_seconds": null, "host": {host_json}, "key": "k", '
            f'"params": "()", "pid": {pid}, "seed": 3, "seq": 1, '
            '"state": "pending", "submitted_at": 1234.5, "time": 1234.5}\n'
            f'{{"attempts": 1, "host": {host_json}, "key": "k", '
            f'"pid": {pid}, "seq": 2, "state": "leased", "time": 1234.5}}\n')

    def test_event_line(self, tmp_path):
        with EventLog(tmp_path / "events.jsonl") as log:
            log.record("lease_reclaimed", key="k", reason="dead_pid",
                       attempts=1)
        assert (tmp_path / "events.jsonl").read_bytes().decode() == (
            '{"attempts": 1, "key": "k", "kind": "lease_reclaimed", '
            f'"pid": {os.getpid()}, "reason": "dead_pid", '
            '"time": 1234.5}\n')
