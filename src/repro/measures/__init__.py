"""Alignment quality measures (paper §5.2).

All measures take the alignment as an integer array ``mapping`` with
``mapping[i]`` the target node assigned to source node ``i`` (``-1`` for
unmatched).  :func:`evaluate_all` computes the full measure suite at once.
"""

from repro.measures.metrics import (
    ALL_MEASURES,
    accuracy,
    edge_correctness,
    evaluate_all,
    induced_conserved_structure,
    matched_neighborhood_consistency,
    symmetric_substructure_score,
)

__all__ = [
    "ALL_MEASURES",
    "accuracy",
    "matched_neighborhood_consistency",
    "edge_correctness",
    "induced_conserved_structure",
    "symmetric_substructure_score",
    "evaluate_all",
]
