"""Uniform dispatch over the four assignment methods (paper §6.2).

The harness evaluates every algorithm under every assignment back-end; this
module provides the single switch point.  Method names follow the paper:
``"nn"``, ``"sg"``, ``"mwm"``, ``"jv"`` (plus ``"nn-1to1"``, the one-to-one
restriction the paper applies to NN-based methods for comparability).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sparse

from repro.assignment.greedy import (
    nearest_neighbor,
    nearest_neighbor_one_to_one,
    sort_greedy,
)
from repro.assignment.jv import jonker_volgenant
from repro.assignment.sparse import (
    sparse_max_weight_matching,
    sparse_nearest_neighbor,
    sparse_nearest_neighbor_one_to_one,
    sparse_sort_greedy,
)
from repro.diagnostics import record_diagnostic
from repro.exceptions import AssignmentError
from repro.observability import add_counter
from repro.sketch import sketch_policy_for

__all__ = ["ASSIGNMENT_METHODS", "extract_alignment"]

ASSIGNMENT_METHODS = ("nn", "nn-1to1", "sg", "mwm", "jv")


def extract_alignment(similarity, method: str = "jv") -> np.ndarray:
    """Turn a similarity matrix into a mapping array using ``method``.

    ``similarity`` may be dense or SciPy-sparse; higher values mean more
    similar.  The result maps each source row to a target column (-1 when
    unmatched).  ``"mwm"`` honors sparsity (absent entries are ineligible).
    For the other methods a sparse input is densified — unless an active
    sketch policy (:mod:`repro.sketch`) covers the problem size, in which
    case candidate-restricted sparse extractors run instead.  ``"jv"``
    then routes to :func:`~repro.assignment.sparse.sparse_max_weight_matching`:
    exact when the candidate set admits a full matching (its optimum
    coincides with JV's on the candidate set), otherwise, above the
    masked-dense size limit, a greedy maximal matching that records an
    ``assignment`` diagnostic with ``fallback_used="greedy"`` and bumps
    the ``assignment_greedy_fallback`` trace counter.  Each densification
    of a sparse input bumps the ``assignment_densified`` trace counter.

    When the exact JV solver reports an infeasible problem on an otherwise
    valid (finite) matrix, the SortGreedy back-end is used instead and a
    ``lap_infeasible`` diagnostic records the substitution — the sweep
    degrades per the paper's protocol rather than losing the cell.
    Non-finite input still raises: that is a caller bug (or a watchdog
    bypass), not a solvable degradation.
    """
    if method not in ASSIGNMENT_METHODS:
        raise AssignmentError(
            f"unknown assignment method {method!r}; choose from {ASSIGNMENT_METHODS}"
        )
    if method == "mwm":
        return sparse_max_weight_matching(similarity)
    if _sparse.issparse(similarity):
        if sketch_policy_for(*similarity.shape) is not None:
            # Sparse-first path: never materialize the dense n x n array
            # above the sketch threshold.
            if method == "nn":
                return sparse_nearest_neighbor(similarity)
            if method == "nn-1to1":
                return sparse_nearest_neighbor_one_to_one(similarity)
            if method == "sg":
                return sparse_sort_greedy(similarity)
            return sparse_max_weight_matching(similarity)  # jv
        add_counter("assignment_densified")
        similarity = similarity.toarray()
    if method == "nn":
        return nearest_neighbor(similarity)
    if method == "nn-1to1":
        return nearest_neighbor_one_to_one(similarity)
    if method == "sg":
        return sort_greedy(similarity)
    try:
        return jonker_volgenant(similarity)
    except AssignmentError as exc:
        dense = np.asarray(similarity)
        if not np.all(np.isfinite(dense)):
            raise  # non-finite input: fail loudly, greedy would mask it
        record_diagnostic(
            "assignment", "lap_infeasible",
            f"exact JV assignment failed ({exc}); "
            "SortGreedy matching used instead",
            fallback_used="sg",
        )
        return sort_greedy(dense)
