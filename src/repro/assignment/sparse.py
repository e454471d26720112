"""Maximum-weight matching on a sparse similarity graph (the paper's MWM).

LREA's "union of matchings" step produces a sparse candidate matrix; the
MWM back-end solves the assignment restricted to those candidates.  The
sparse-first similarity path (:mod:`repro.sketch`) feeds top-k candidate
matrices through the same solver.

Solver routing, in order:

* an input that *arrived* sparse with density at or below
  ``_SPARSE_DENSITY_CUTOFF`` goes straight to SciPy's sparse LAPJVsp
  solver (``min_weight_full_bipartite_matching``) regardless of size —
  an O(nk) candidate set is never densified into an O(n^2) cost matrix.
  Weights are shifted to strictly positive costs first: the historical
  non-termination this module once worked around was triggered by raw
  negative weights, and the shift (which cannot change the optimal
  *full* matching) removes it.  An infeasible pattern (no matching
  saturating the smaller side) raises ``ValueError`` and drops to the
  dense or greedy fallback below.
* everything else under ``_DENSE_LIMIT`` rows/columns is solved with the
  dense Hungarian/JV solver on a masked cost matrix — ineligible pairs
  carry a prohibitive cost and are stripped from the result.  This path
  also finds optimal *partial* matchings, which is why infeasible sparse
  instances fall back here when small enough.  A sparse input densified
  this way bumps the ``assignment_densified`` trace counter, the
  observable the sparse-first contract is audited by.
* instances too large to densify fall back to a maximal greedy matching.
  Both greedy routes record an ``assignment`` diagnostic with
  ``fallback_used="greedy"`` and bump the ``assignment_greedy_fallback``
  trace counter, so a greedy result is never mistaken for the optimum.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from repro.diagnostics import record_diagnostic
from repro.exceptions import AssignmentError
from repro.observability import add_counter

__all__ = [
    "sparse_max_weight_matching",
    "sparse_nearest_neighbor",
    "sparse_nearest_neighbor_one_to_one",
    "sparse_sort_greedy",
]

# Above this many rows/columns the masked-dense solve is not worth the
# memory; the greedy maximal matching takes over.
_DENSE_LIMIT = 6000

# At or below this nnz density an already-sparse input keeps its sparse
# representation all the way through the solver.  Above it the candidate
# set is close enough to dense that the masked-dense solve (which also
# handles infeasible patterns optimally) stays the better tool.
_SPARSE_DENSITY_CUTOFF = 0.25


def _greedy_sparse(matrix: sparse.csr_matrix) -> np.ndarray:
    """Maximal greedy matching on a sparse similarity matrix."""
    coo = matrix.tocoo()
    order = np.argsort(-coo.data)
    mapping = np.full(matrix.shape[0], -1, dtype=np.int64)
    col_taken = np.zeros(matrix.shape[1], dtype=bool)
    for idx in order:
        i, j = int(coo.row[idx]), int(coo.col[idx])
        if mapping[i] == -1 and not col_taken[j]:
            mapping[i] = j
            col_taken[j] = True
    return mapping


def _greedy_fallback(matrix: sparse.csr_matrix, kind: str,
                     reason: str) -> np.ndarray:
    """The greedy matching, recorded as a degradation of the exact one."""
    record_diagnostic("assignment", kind,
                      f"{reason}; greedy maximal matching used instead",
                      fallback_used="greedy")
    add_counter("assignment_greedy_fallback")
    return _greedy_sparse(matrix)


def _exact_sparse(matrix: sparse.csr_matrix) -> np.ndarray:
    """Exact candidate-restricted matching via SciPy's sparse LAPJVsp.

    Similarities become strictly positive costs ``(max - s) + 1``; a
    constant shift on a *full* matching's cost cannot change the argmin,
    so maximizing similarity and minimizing shifted cost agree.  Raises
    ``ValueError`` when no matching saturates the smaller side.
    """
    cost = matrix.tocsr(copy=True)
    cost.data = (float(matrix.data.max()) - cost.data) + 1.0
    rows, cols = min_weight_full_bipartite_matching(cost)
    mapping = np.full(matrix.shape[0], -1, dtype=np.int64)
    mapping[rows] = cols
    return mapping


def _checked_csr(similarity) -> sparse.csr_matrix:
    mat = sparse.csr_matrix(similarity, dtype=np.float64)
    if np.any(~np.isfinite(mat.data)):
        raise AssignmentError("similarity matrix contains non-finite entries")
    return mat


def sparse_nearest_neighbor(similarity) -> np.ndarray:
    """Best *explicit* target per source row of a sparse similarity.

    The candidate-restricted counterpart of
    :func:`repro.assignment.greedy.nearest_neighbor`: only entries present
    in the sparsity pattern compete, so implicit zeros can never win (a
    row with no candidates maps to -1).  Many-to-one matches are allowed.
    """
    mat = _checked_csr(similarity)
    mapping = np.full(mat.shape[0], -1, dtype=np.int64)
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    for i in range(mat.shape[0]):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            mapping[i] = indices[lo + np.argmax(data[lo:hi])]
    return mapping


def sparse_nearest_neighbor_one_to_one(similarity) -> np.ndarray:
    """Candidate-restricted NN with conflicts resolved by higher score.

    Rows are processed in decreasing order of their best explicit score;
    a row whose best remaining candidate is taken falls back to its
    next-best free candidate, and maps to -1 once its candidate list is
    exhausted — unlike the dense variant, it never spills outside the
    candidate set.
    """
    mat = _checked_csr(similarity)
    n_rows, n_cols = mat.shape
    mapping = np.full(n_rows, -1, dtype=np.int64)
    taken = np.zeros(n_cols, dtype=bool)
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    best = np.full(n_rows, -np.inf)
    for i in range(n_rows):
        lo, hi = indptr[i], indptr[i + 1]
        if hi > lo:
            best[i] = data[lo:hi].max()
    for i in np.argsort(-best):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo:
            continue
        for pos in np.argsort(-data[lo:hi]):
            j = indices[lo + pos]
            if not taken[j]:
                mapping[i] = j
                taken[j] = True
                break
    return mapping


def sparse_sort_greedy(similarity) -> np.ndarray:
    """SortGreedy restricted to the explicit candidate set.

    Walks all explicit entries in decreasing similarity and keeps a pair
    whenever both endpoints are still free — a maximal matching on the
    candidate graph at ``O(nnz log nnz)`` cost.
    """
    return _greedy_sparse(_checked_csr(similarity))


def sparse_max_weight_matching(similarity) -> np.ndarray:
    """One-to-one alignment maximizing similarity over a sparse candidate set.

    ``similarity`` is any SciPy sparse matrix (or dense array, which is
    converted); entries absent from the sparsity pattern are ineligible
    pairs.  Source rows with no eligible or assignable target map to -1.
    """
    was_sparse = sparse.issparse(similarity)
    mat = sparse.csr_matrix(similarity, dtype=np.float64)
    if mat.nnz == 0:
        return np.full(mat.shape[0], -1, dtype=np.int64)
    if np.any(~np.isfinite(mat.data)):
        raise AssignmentError("similarity matrix contains non-finite entries")
    n_rows, n_cols = mat.shape

    density = mat.nnz / (n_rows * n_cols)
    if was_sparse and density <= _SPARSE_DENSITY_CUTOFF:
        try:
            return _exact_sparse(mat)
        except ValueError as exc:
            # No perfect matching on the candidate pattern.  Small
            # instances densify below — the masked-dense solver finds
            # the optimal *partial* matching; large ones go greedy.
            if max(n_rows, n_cols) > _DENSE_LIMIT:
                return _greedy_fallback(
                    mat, "lap_infeasible",
                    f"exact sparse matching failed ({exc}) on a "
                    f"{n_rows} x {n_cols} candidate set too large to "
                    "densify")

    if max(n_rows, n_cols) > _DENSE_LIMIT:
        return _greedy_fallback(
            mat, "dense_limit",
            f"{n_rows} x {n_cols} similarity (density {density:.3g}) is "
            f"above the {_DENSE_LIMIT}-node masked-dense limit")
    if was_sparse:
        add_counter("assignment_densified")

    # Masked dense solve: eligible entries carry cost -(similarity); the
    # rest a prohibitive constant chosen so any all-eligible assignment
    # beats one using a masked cell.
    spread = float(mat.data.max() - mat.data.min()) + 1.0
    prohibitive = spread * (min(n_rows, n_cols) + 1)
    cost = np.full((n_rows, n_cols), prohibitive)
    coo = mat.tocoo()
    cost[coo.row, coo.col] = -(coo.data - mat.data.min())

    transpose = n_rows > n_cols
    rows, cols = linear_sum_assignment(cost.T if transpose else cost)
    if transpose:
        rows, cols = cols, rows

    mapping = np.full(n_rows, -1, dtype=np.int64)
    eligible = cost[rows, cols] < prohibitive
    mapping[rows[eligible]] = cols[eligible]
    return mapping
