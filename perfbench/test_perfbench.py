"""Unit tests for the benchmark's metric arithmetic.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
from metrics import (  # noqa: E402
    highest_supported_percentile,
    idle_share,
    open_loop_summary,
    pairs_won,
    quartiles,
    relative_spread,
    self_time,
    worse_by,
)
from spans import SpanRecorder  # noqa: E402


def request(due, sent, state="done", completed=None):
    return {"due": due, "sent": sent, "state": state, "completed": completed}


class TestOpenLoop:
    def test_latency_runs_from_due_time_not_send_time(self):
        # The generator stalled: due at 0, sent at 0.8, done at 1.0.
        summary = open_loop_summary([request(0.0, 0.8, completed=1.0)],
                                    limit_s=0.5)
        assert summary["latency_p50_s"] == pytest.approx(1.0)
        assert summary["within_limit_share"] == 0.0
        assert summary["generator_lag_s"] == pytest.approx(0.8)

    def test_refused_and_expired_requests_miss_the_limit(self):
        requests = [
            request(0.0, 0.0, completed=0.1),
            request(1.0, 1.0, completed=1.2),
            request(2.0, 2.0, state="refused"),
            request(3.0, 3.0, state="expired", completed=3.05),
        ]
        summary = open_loop_summary(requests, limit_s=0.5)
        assert summary["within_limit_share"] == pytest.approx(0.5)
        assert summary["done"] == 2
        # Percentiles cover completed requests only.
        assert summary["latency_p90_s"] == pytest.approx(0.1 + 0.9 * 0.1)

    def test_failed_and_lost_requests_miss_the_limit(self):
        requests = [request(0.0, 0.0, state="failed", completed=0.1),
                    request(0.0, 0.0, state="lost")]
        summary = open_loop_summary(requests, limit_s=10.0)
        assert summary["within_limit_share"] == 0.0
        assert "latency_p50_s" not in summary

    def test_empty_run_is_an_error(self):
        with pytest.raises(ValueError):
            open_loop_summary([], limit_s=1.0)


class TestIdleShare:
    def test_busy_plus_idle_is_pool_capacity(self):
        share = idle_share(busy_s=3.0, workers=2, wall_s=2.0)
        assert share == pytest.approx(0.25)
        assert 3.0 + share * 2 * 2.0 == pytest.approx(2 * 2.0)

    def test_serial_fully_busy(self):
        assert idle_share(busy_s=5.0, workers=1, wall_s=5.0) == 0.0

    @pytest.mark.parametrize("workers, wall", [(0, 1.0), (1, 0.0)])
    def test_rejects_degenerate_pools(self, workers, wall):
        with pytest.raises(ValueError):
            idle_share(1.0, workers, wall)


class TestSelfTime:
    def test_children_are_subtracted_once_where_they_overlap(self):
        # Children cover [1, 5] and [7, 8]: 5 seconds of the 10.
        assert self_time(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == \
            pytest.approx(5.0)

    def test_child_time_outside_the_parent_is_ignored(self):
        assert self_time(0.0, 4.0, [(-2.0, 1.0), (3.0, 9.0)]) == \
            pytest.approx(2.0)

    def test_recorder_nests_and_rolls_up_by_name(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        recorder = SpanRecorder(clock=lambda: next(ticks))
        with recorder.span("cell", cell="c1"):
            with recorder.span("assignment.extract.jv"):
                pass
            with recorder.span("measures.evaluate"):
                pass
        parent, first, second = recorder.spans
        assert first.parent == parent.id and second.parent == parent.id
        assert first.cell == "c1" and second.cell == "c1"
        totals = recorder.self_time_by_name()
        assert totals == pytest.approx(
            {"cell": 10.0 - 2.0 - 3.0, "assignment.extract.jv": 2.0,
             "measures.evaluate": 3.0})

    def test_recorder_writes_spans_once(self, tmp_path):
        recorder = SpanRecorder()
        with recorder.span("instance", cell="x"):
            pass
        path = tmp_path / "trace.json"
        recorder.write(path)
        (span,) = json.loads(path.read_text())["spans"]
        assert span["name"] == "instance" and span["parent"] is None
        assert span["self_s"] == pytest.approx(span["end"] - span["start"])


class TestPercentiles:
    @pytest.mark.parametrize("count, expected", [
        (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, count,
                                                        expected):
        assert highest_supported_percentile(count) == expected

    def test_quartiles_match_the_acceptance_check(self):
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        assert quartiles(values) == pytest.approx([1.5, 3.0, 4.5])
        assert relative_spread(values) == pytest.approx(1.0)


class TestPairs:
    def test_ties_count_for_neither_side(self):
        result = pairs_won([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0],
                           better="lower")
        assert result == {"pairs": 4, "won": 2, "lost": 1, "won_share": 0.5}

    def test_worse_by_follows_the_direction(self):
        assert worse_by(10.0, 12.0, "lower") == pytest.approx(0.2)
        assert worse_by(10.0, 12.0, "higher") == pytest.approx(-0.2)


def write_run(root, workload, trace, seed, metrics, failed=0):
    path = root / workload / f"trace{trace}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "correct": not failed, "attempted": 1, "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"}
                    for name, value in metrics.items()}}))


def test_compare_flags_a_regression_and_where_it_landed(tmp_path):
    bench = {
        "workloads": [{"name": "w", "why": "-"}],
        "end_to_end": [{"name": "latency_ms", "unit": "ms",
                        "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "a.s", "unit": "s", "better": "lower"},
                      {"name": "b.s", "unit": "s", "better": "lower"}],
    }
    for seed in range(10):
        write_run(tmp_path / "old", "w", 0, seed, {"latency_ms": 10 + seed % 2})
        write_run(tmp_path / "new", "w", 0, seed, {"latency_ms": 13 + seed % 2})
        write_run(tmp_path / "old", "w", 1, seed, {"a.s": 1.0, "b.s": 2.0})
        write_run(tmp_path / "new", "w", 1, seed, {"a.s": 1.0, "b.s": 5.0})
    parent = compare.load_runs(tmp_path / "old")
    change = compare.load_runs(tmp_path / "new")
    (row,) = compare.end_to_end_rows(parent, change, bench)
    assert row["verdict"] == "regression" and row["pairs"] == 10
    assert row["won_share"] == 0.0
    flagged = {r["metric"]: r["flagged"]
               for r in compare.layer_rows(parent, change, bench)}
    assert flagged == {"a.s": False, "b.s": True}


class TestVerdict:
    # Parent medians 10, quartile spread 0.2: wider than a 0.1 bound.
    NOISY = [8.0, 9.0, 10.0, 10.0, 10.0, 11.0, 12.0, 9.0, 10.0, 11.0]

    def test_noisy_parent_leaves_an_overlapping_move_unresolved(self):
        new = [v * 1.15 for v in self.NOISY]
        assert relative_spread(self.NOISY) > 0.1
        assert compare.verdict(self.NOISY, new, "lower", 0.1, 0, 0) == \
            "unresolved"

    def test_noisy_parent_leaves_even_a_clear_slowdown_unresolved(self):
        new = [v + 10.0 for v in self.NOISY]
        assert compare.verdict(self.NOISY, new, "lower", 0.1, 0, 0) == \
            "unresolved"

    def test_noisy_parent_still_reports_a_change_better_on_every_run(self):
        new = [v - 10.0 for v in self.NOISY]
        assert compare.verdict(self.NOISY, new, "lower", 0.1, 0, 0) == \
            "gain"

    def test_gain_needs_no_more_failures_than_the_parent(self):
        old = [10.0 + 0.01 * i for i in range(10)]
        new = [v / 2 for v in old]
        assert compare.verdict(old, new, "lower", 0.1, 0, 0) == "gain"
        assert compare.verdict(old, new, "lower", 0.1, 0, 1) == \
            "within bound"


def test_compare_pairs_only_seeds_with_the_metric_on_both_sides(tmp_path):
    bench = {
        "workloads": [{"name": "w", "why": "-"}],
        "end_to_end": [{"name": "latency_ms", "unit": "ms",
                        "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }
    for seed in range(4):
        old = {"latency_ms": 10.0 + seed} if seed != 1 else {}
        new = {"latency_ms": 20.0 + seed} if seed != 2 else {}
        write_run(tmp_path / "old", "w", 0, seed, old)
        write_run(tmp_path / "new", "w", 0, seed, new, failed=seed == 3)
    seeds, old, new = compare.paired(
        compare.load_runs(tmp_path / "old")[("w", 0)],
        compare.load_runs(tmp_path / "new")[("w", 0)], "latency_ms")
    assert seeds == [0, 3]
    assert old == [10.0, 13.0] and new == [20.0, 23.0]
    (row,) = compare.end_to_end_rows(compare.load_runs(tmp_path / "old"),
                                     compare.load_runs(tmp_path / "new"),
                                     bench)
    assert row["pairs"] == 2 and row["failed"] == [0, 1]
