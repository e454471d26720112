"""Tests for the hard wall-clock deadline of the budget runner."""

import numpy as np
import pytest

from repro.algorithms.base import (
    ALGORITHM_REGISTRY,
    AlgorithmInfo,
    AlignmentAlgorithm,
    register_algorithm,
)
from repro.exceptions import ExperimentError
from repro.graphs import powerlaw_cluster_graph
from repro.harness import CellBudget, run_cell_with_budget
from repro.noise import make_pair

PAIR = make_pair(powerlaw_cluster_graph(40, 3, 0.3, seed=61), "one-way",
                 0.0, seed=62)


class _Sleeper(AlignmentAlgorithm):
    """Test-only algorithm that sleeps long enough to trip any budget."""

    info = AlgorithmInfo(
        name="_sleeper", year=2026, preprocessing="no", biological=False,
        default_assignment="jv", optimizes="any", time_complexity="O(zzz)",
        parameters={},
    )

    def _similarity(self, source, target, rng):
        import time
        time.sleep(30)
        return np.ones((source.num_nodes, target.num_nodes))


@pytest.fixture(scope="module", autouse=True)
def _register_sleeper():
    """Register the test-only algorithm for this module's tests only.

    Registration happens inside the fixture (not at import time) so pytest
    collection never pollutes the registry other modules assert on.
    """
    register_algorithm(_Sleeper)
    yield
    ALGORITHM_REGISTRY.pop("_sleeper", None)


def _run(algorithm, repetition, timeout_seconds):
    return run_cell_with_budget(algorithm, PAIR, "pl", repetition,
                                CellBudget(time_seconds=timeout_seconds))


class TestTimeout:
    def test_fast_cell_succeeds(self):
        record = _run("isorank", 0, timeout_seconds=60)
        assert not record.failed
        assert record.dataset == "pl"
        assert "accuracy" in record.measures

    def test_slow_cell_killed(self):
        record = _run("_sleeper", 0, timeout_seconds=1.5)
        assert record.failed
        assert "timeout" in record.error

    def test_child_error_captured(self):
        record = _run("no-such-algorithm", 0, timeout_seconds=30)
        assert record.failed
        assert record.error

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ExperimentError):
            _run("isorank", 0, timeout_seconds=0)

    def test_repetition_tag_preserved(self):
        record = _run("nsd", 3, timeout_seconds=60)
        assert record.repetition == 3
