"""Corruption matrix and layering contract of the disk-backed cache.

The acceptance bar: **no on-disk breakage ever escapes as an
exception or as wrong data**.  Truncated payloads, flipped bytes, a
deleted metadata file, an unreadable payload, unpicklable bytes — each
yields a quarantine + recompute with a recorded diagnostic event, and
the recomputed value is correct.
"""

import json
import os
import pickle

import numpy as np
import pytest

from repro.cache import ArtifactCache, artifact_cache, caching
from repro.cache_disk import (
    DiskArtifactCache,
    entry_key,
    load_cache_events,
)
from repro.durable import atomic_write_bytes
from repro.faults import corrupt_random_cache_entry
from repro.graphs import powerlaw_cluster_graph

GRAPH = powerlaw_cluster_graph(30, 3, 0.3, seed=2)
OTHER = powerlaw_cluster_graph(30, 3, 0.3, seed=3)


def _value():
    return np.arange(24, dtype=np.float64).reshape(4, 6)


def _populate(disk, artifact="basis", params=None):
    """Store one entry; returns its (payload, meta) paths."""
    produced = []

    def producer():
        produced.append(True)
        return _value()

    value = disk.get_or_compute(GRAPH, artifact, producer, params=params)
    assert produced and np.array_equal(value, _value())
    key = entry_key(GRAPH.content_digest(), artifact, params)
    payload, meta = disk._paths(key)
    assert payload.exists() and meta.exists()
    return payload, meta


class TestRoundTrip:
    def test_cold_store_warm_load(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        _populate(disk)
        found, value = disk.load(GRAPH, "basis")
        assert found and np.array_equal(value, _value())
        assert disk.stats()["hits"] == 1

    def test_loaded_values_are_frozen(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        _populate(disk)
        _found, value = disk.load(GRAPH, "basis")
        with pytest.raises(ValueError):
            value[0, 0] = 99.0

    def test_params_and_graphs_address_distinct_entries(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        disk.get_or_compute(GRAPH, "basis", _value, params={"k": 4})
        assert disk.load(GRAPH, "basis", params={"k": 5}) == (False, None)
        assert disk.load(OTHER, "basis", params={"k": 4}) == (False, None)
        found, _ = disk.load(GRAPH, "basis", params={"k": 4})
        assert found

    def test_cross_instance_reuse(self, tmp_path):
        """A second DiskArtifactCache on the same dir — a different
        process, morally — sees the first one's entries."""
        DiskArtifactCache(tmp_path).get_or_compute(GRAPH, "basis", _value)
        found, value = DiskArtifactCache(tmp_path).load(GRAPH, "basis")
        assert found and np.array_equal(value, _value())


def _assert_recovered(disk, reason_fragment):
    """The shared back half of every corruption case: the next lookup is
    a quarantining miss, the recompute round-trips, and the event log
    names the reason."""
    recomputed = []
    value = disk.get_or_compute(GRAPH, "basis",
                                lambda: recomputed.append(True) or _value())
    assert recomputed, "corrupt entry was served instead of recomputed"
    assert np.array_equal(value, _value())
    assert disk.stats()["quarantined"] >= 1
    events = load_cache_events(disk.root)
    assert any(e["kind"] == "entry_quarantined"
               and reason_fragment in e["reason"] for e in events), events
    # ...and the healed entry now loads cleanly.
    found, healed = disk.load(GRAPH, "basis")
    assert found and np.array_equal(healed, _value())


class TestCorruptionMatrix:
    def test_truncated_payload(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        payload, _meta = _populate(disk)
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        _assert_recovered(disk, "checksum mismatch")

    def test_flipped_byte(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        _populate(disk)
        assert corrupt_random_cache_entry(tmp_path, seed=0) is not None
        _assert_recovered(disk, "checksum mismatch")

    def test_missing_metadata_orphans_payload(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        payload, meta = _populate(disk)
        meta.unlink()
        _assert_recovered(disk, "orphan payload")
        assert list(disk.quarantine_dir.iterdir())  # payload moved aside

    def test_malformed_metadata(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        _payload, meta = _populate(disk)
        meta.write_text("{not json")
        _assert_recovered(disk, "malformed")

    def test_metadata_without_payload(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        payload, _meta = _populate(disk)
        payload.unlink()
        _assert_recovered(disk, "metadata without payload")

    def test_newer_entry_version_refused_not_misread(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        _payload, meta = _populate(disk)
        doc = json.loads(meta.read_bytes())
        doc["version"] = 99
        meta.write_text(json.dumps(doc))
        _assert_recovered(disk, "newer")

    def test_unpicklable_payload_with_valid_checksum(self, tmp_path):
        import hashlib

        disk = DiskArtifactCache(tmp_path)
        payload, meta = _populate(disk)
        garbage = b"\x80\x04not actually a pickle"
        payload.write_bytes(garbage)
        doc = json.loads(meta.read_bytes())
        doc["checksum"] = hashlib.blake2b(garbage, digest_size=16).hexdigest()
        meta.write_text(json.dumps(doc))
        _assert_recovered(disk, "failed to deserialize")

    def test_payload_replaced_by_directory(self, tmp_path):
        """An OSError on read (here IsADirectoryError) quarantines like
        any other unreadable payload — the move needs only directory
        permissions."""
        disk = DiskArtifactCache(tmp_path)
        payload, _meta = _populate(disk)
        payload.unlink()
        payload.mkdir()
        _assert_recovered(disk, "unreadable payload")

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root ignores file permission bits")
    def test_unreadable_payload_permissions(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        payload, _meta = _populate(disk)
        payload.chmod(0o000)
        try:
            _assert_recovered(disk, "unreadable payload")
        finally:
            for leftover in disk.quarantine_dir.glob("*.bin"):
                leftover.chmod(0o644)

    def test_quarantine_never_raises_into_caller(self, tmp_path):
        """Even the worst case — every file unreadable and immovable —
        must surface as a miss, not an exception."""
        disk = DiskArtifactCache(tmp_path)
        payload, _meta = _populate(disk)
        payload.write_bytes(b"junk")
        found, value = disk.load(GRAPH, "basis")
        assert (found, value) == (False, None)


class TestStoreFailures:
    def test_unpicklable_value_reports_false(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        assert disk.store(GRAPH, "bad", lambda: None) is False
        assert disk.stats()["store_failures"] == 1
        assert any(e["kind"] == "store_failed"
                   for e in load_cache_events(tmp_path))


class TestLayering:
    def test_memory_miss_falls_through_to_disk(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        _populate(disk)
        memory = ArtifactCache(backing=disk)
        produced = []
        value = memory.get_or_compute(GRAPH, "basis",
                                      lambda: produced.append(True))
        assert not produced  # served from disk, producer never ran
        assert np.array_equal(value, _value())
        assert disk.stats()["hits"] == 1

    def test_produced_values_pushed_down(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        memory = ArtifactCache(backing=disk)
        memory.get_or_compute(GRAPH, "basis", _value)
        assert disk.stats()["stores"] == 1
        # A *fresh* memory tier (new process, morally) now loads from disk.
        fresh = ArtifactCache(backing=DiskArtifactCache(tmp_path))
        produced = []
        fresh.get_or_compute(GRAPH, "basis",
                             lambda: produced.append(True))
        assert not produced

    def test_memory_hit_never_touches_disk(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        memory = ArtifactCache(backing=disk)
        memory.get_or_compute(GRAPH, "basis", _value)
        before = disk.hits + disk.misses
        memory.get_or_compute(GRAPH, "basis", _value)
        assert disk.hits + disk.misses == before

    def test_corrupt_entry_heals_through_the_stack(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        _populate(disk)
        corrupt_random_cache_entry(tmp_path, seed=1)
        memory = ArtifactCache(backing=disk)
        value = memory.get_or_compute(GRAPH, "basis", _value)
        assert np.array_equal(value, _value())
        assert disk.stats()["quarantined"] == 1

    def test_alignment_identical_with_disk_backing(self, tmp_path):
        import repro
        from repro.noise import make_pair

        pair = make_pair(GRAPH, "one-way", 0.02, seed=4)
        plain = repro.align(pair.source, pair.target, method="grasp", seed=3)
        disk = DiskArtifactCache(tmp_path)
        with caching(True), artifact_cache(ArtifactCache(backing=disk)):
            cold = repro.align(pair.source, pair.target, method="grasp",
                               seed=3)
        # Fresh memory tier: everything must come back from disk.
        with caching(True), artifact_cache(ArtifactCache(
                backing=DiskArtifactCache(tmp_path))):
            warm = repro.align(pair.source, pair.target, method="grasp",
                               seed=3)
        assert np.array_equal(cold.mapping, plain.mapping)
        assert np.array_equal(warm.mapping, plain.mapping)
        assert DiskArtifactCache(tmp_path).stats()["entries"] > 0


class TestMaintenance:
    def test_prune_evicts_oldest_first(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        old_payload, _ = _populate(disk, artifact="old")
        new_payload, _ = _populate(disk, artifact="new")
        os.utime(old_payload, (1, 1))
        removed = disk.prune(max_bytes=new_payload.stat().st_size)
        assert removed == 1
        assert not old_payload.exists() and new_payload.exists()
        found, _ = disk.load(GRAPH, "new")
        assert found

    def test_prune_clears_aged_quarantine(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        payload, _meta = _populate(disk)
        payload.write_bytes(b"junk")
        disk.load(GRAPH, "basis")
        files = list(disk.quarantine_dir.iterdir())
        assert files
        for path in files:
            os.utime(path, (1, 1))
        disk.prune(quarantine_max_age_seconds=60.0)
        assert not list(disk.quarantine_dir.iterdir())

    def test_atomic_write_replaces_not_appends(self, tmp_path):
        target = tmp_path / "x.bin"
        atomic_write_bytes(target, b"first", fsync=False)
        atomic_write_bytes(target, b"2nd", fsync=False)
        assert target.read_bytes() == b"2nd"
        assert not list(tmp_path.glob(".x.bin.*"))  # no temp litter


    def test_prune_report_dry_run_removes_nothing(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        old_payload, _ = _populate(disk, artifact="old")
        new_payload, _ = _populate(disk, artifact="new")
        os.utime(old_payload, (1, 1))
        report = disk.prune_report(max_bytes=new_payload.stat().st_size,
                                   dry_run=True)
        assert report["dry_run"] is True
        assert report["entries_removed"] == 1
        assert report["bytes_freed"] == old_payload.stat().st_size
        assert old_payload.exists() and new_payload.exists()
        assert report["entries_before"] == 2
        assert report["entries_after"] == 1  # what a real prune would leave

    def test_prune_report_accounts_real_eviction(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        old_payload, _ = _populate(disk, artifact="old")
        new_payload, _ = _populate(disk, artifact="new")
        os.utime(old_payload, (1, 1))
        doomed = old_payload.stat().st_size
        report = disk.prune_report(max_bytes=new_payload.stat().st_size)
        assert report["dry_run"] is False
        assert report["entries_removed"] == 1
        assert report["bytes_freed"] == doomed
        assert not old_payload.exists()
        assert report["payload_bytes_after"] == new_payload.stat().st_size

    def test_prune_report_counts_quarantine(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        payload, _meta = _populate(disk)
        payload.write_bytes(b"junk")
        disk.load(GRAPH, "basis")
        for path in disk.quarantine_dir.iterdir():
            os.utime(path, (1, 1))
        report = disk.prune_report(quarantine_max_age_seconds=60.0)
        assert report["quarantine_files_removed"] >= 1
        assert report["quarantine_bytes_freed"] > 0
        assert not list(disk.quarantine_dir.iterdir())

    def test_concurrent_atomic_writes_to_one_target(self, tmp_path):
        """Two threads racing the same destination must both succeed
        (distinct temp names), leaving one of the two payloads."""
        import threading

        target = tmp_path / "contended.bin"
        barrier = threading.Barrier(2)
        errors = []

        def writer(body):
            barrier.wait()
            try:
                for _ in range(50):
                    atomic_write_bytes(target, body, fsync=False)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(body,))
                   for body in (b"alpha", b"bravo")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert target.read_bytes() in (b"alpha", b"bravo")
        assert not list(tmp_path.glob(".contended.bin.*"))


class TestEventLog:
    def test_events_merge_across_writers_sorted(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        disk._record_event("entry_quarantined", key="a", artifact="x",
                           reason="r1")
        other = tmp_path / "events" / "otherhost-999.jsonl"
        other.write_text(json.dumps(
            {"kind": "entry_quarantined", "time": 0.5, "pid": 999,
             "key": "b", "artifact": "y", "reason": "r0"}) + "\n")
        events = load_cache_events(tmp_path)
        assert [e["key"] for e in events] == ["b", "a"]  # time-ordered

    def test_torn_trailing_line_tolerated(self, tmp_path):
        disk = DiskArtifactCache(tmp_path)
        disk._record_event("entry_quarantined", key="a", artifact="x",
                           reason="r")
        with open(disk._events_path(), "a") as handle:
            handle.write('{"kind": "entry_quar')  # crash mid-append
        events = load_cache_events(tmp_path)
        assert len(events) == 1 and events[0]["key"] == "a"
