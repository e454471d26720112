"""xNetMF: REGAL's cross-network structural embedding (paper §3.5).

Pipeline, following Heimann et al. (2018):

1. **Structural features** — for every node, a histogram of the degrees in
   its k-hop neighborhoods, with degrees binned into logarithmic buckets and
   hop ``k`` discounted by ``delta**(k-1)`` (paper Eq. 8).
2. **Landmark similarities** — ``p`` random landmark nodes are drawn from
   the union of both graphs; every node's similarity to each landmark is
   ``exp(-gamma * ||d_u - d_l||^2)`` (paper Eq. 9, structure-only).
3. **Nyström factorization** — the implicit full similarity matrix
   ``S ≈ C W^+ C^T`` is never formed; embeddings ``Y = C U sqrt(S)`` come
   from the SVD of the pseudo-inverse of the landmark block ``W``.

The embeddings of both graphs live in the same space, so alignment reduces
to nearest-neighbor queries between the two embedding sets.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.cache import cached_artifact
from repro.exceptions import AlgorithmError
from repro.graphs.generators import SeedLike, as_rng
from repro.graphs.graph import Graph
from repro.graphs.operations import khop_shells

__all__ = ["structural_features", "xnetmf_embeddings"]

# Rows of the landmark-similarity broadcast evaluated at once: the
# (rows, p, width) difference tensor stays O(block) instead of O(n).
_SIMILARITY_BLOCK = 1024


def structural_features(
    graph: Graph,
    max_hops: int = 2,
    delta: float = 0.1,
    num_buckets: int | None = None,
) -> np.ndarray:
    """Discounted k-hop degree histograms (REGAL's node identity).

    Degrees ``d`` land in bucket ``floor(log2(d))``; hop-``k`` neighborhoods
    are weighted ``delta**(k-1)``.  ``num_buckets`` fixes the feature width
    so features from two graphs are comparable (defaults to the width needed
    for this graph).  All nodes' hop shells come from one blocked sparse
    frontier expansion (:func:`~repro.graphs.operations.khop_shells`).
    """
    degrees = graph.degrees.astype(np.int64)
    max_deg = int(degrees.max()) if degrees.size else 0
    needed = int(np.floor(np.log2(max(max_deg, 1)))) + 1
    width = needed if num_buckets is None else int(num_buckets)
    if width < needed:
        raise AlgorithmError(
            f"num_buckets={width} too small for max degree {max_deg}"
        )

    def produce() -> np.ndarray:
        features = np.zeros((graph.num_nodes, width))
        bucket = np.floor(np.log2(np.maximum(degrees, 1))).astype(np.int64)
        for start, shells in khop_shells(graph, max_hops):
            block = features[start:start + shells[0].shape[0]]
            # Hop by hop, so every entry is the float sum a per-node BFS
            # builds (an empty shell adds exact zeros for finite delta).
            for k, shell in enumerate(shells, start=1):
                rows = np.repeat(np.arange(shell.shape[0]),
                                 np.diff(shell.indptr))
                hist = np.bincount(rows * width + bucket[shell.indices],
                                   minlength=shell.shape[0] * width)
                block += (delta ** (k - 1)) * hist.reshape(-1, width)
        return features

    # Keyed on the *resolved* width, so "default width for this graph"
    # and an explicit num_buckets of the same value share one entry.
    # The downstream landmark/Nyström stages are seeded and stay uncached.
    return cached_artifact(
        graph, "structural_features", produce,
        params={"max_hops": int(max_hops), "delta": float(delta),
                "width": width},
    )


def _landmark_similarities(features: np.ndarray, landmarks: np.ndarray,
                           gamma: float) -> np.ndarray:
    """``exp(-gamma * ||d_u - d_l||^2)`` for every node/landmark pair."""
    out = np.empty((features.shape[0], landmarks.shape[0]))
    for lo in range(0, features.shape[0], _SIMILARITY_BLOCK):
        rows = features[lo:lo + _SIMILARITY_BLOCK]
        diff = rows[:, np.newaxis, :] - landmarks[np.newaxis, :, :]
        out[lo:lo + _SIMILARITY_BLOCK] = np.exp(-gamma * (diff ** 2).sum(axis=2))
    return out


def xnetmf_embeddings(
    graphs: Sequence[Graph],
    max_hops: int = 2,
    delta: float = 0.1,
    gamma: float = 1.0,
    num_landmarks: int | None = None,
    seed: SeedLike = None,
) -> List[np.ndarray]:
    """Joint structural embeddings for a collection of graphs.

    ``num_landmarks`` defaults to the paper's ``10 * log2(n)`` (clipped to
    the total node count).  Returns one ``(n_i, p)`` embedding matrix per
    graph, rows L2-normalized, all living in the same landmark space.
    """
    if not graphs:
        raise AlgorithmError("xnetmf_embeddings requires at least one graph")
    rng = as_rng(seed)
    total = sum(g.num_nodes for g in graphs)
    max_deg = max((int(g.degrees.max()) if g.num_nodes else 0) for g in graphs)
    width = int(np.floor(np.log2(max(max_deg, 1)))) + 1

    feats = [structural_features(g, max_hops, delta, num_buckets=width)
             for g in graphs]
    stacked = np.vstack(feats)

    if num_landmarks is None:
        num_landmarks = int(10 * np.log2(max(total, 2)))
    p = int(min(max(num_landmarks, 1), total))
    landmark_idx = rng.choice(total, size=p, replace=False)
    landmarks = stacked[landmark_idx]

    c_full = _landmark_similarities(stacked, landmarks, gamma)  # (total, p)
    w = c_full[landmark_idx]  # (p, p) landmark block
    w_pinv = np.linalg.pinv(w)
    u, s, _vt = np.linalg.svd(w_pinv)
    factor = u * np.sqrt(s)[np.newaxis, :]
    emb = c_full @ factor

    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    emb = emb / norms

    out, offset = [], 0
    for g in graphs:
        out.append(emb[offset:offset + g.num_nodes])
        offset += g.num_nodes
    return out
