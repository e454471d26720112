"""The literature's other noise models (paper §5.1.1's survey).

Besides the three strategies the study adopts, §5.1.1 catalogs noise used
by the original papers: removing and adding *nodes* (GRAAL [29]),
generating noise based on the *distance* between nodes (NSD [27]), and
sampling edges from a *Poisson* model (GWL [60]).  These are implemented
here so the benchmark can also be driven under each algorithm's home-field
noise — the ablation that explains why published comparisons disagree.

Node removal produces *partial* ground truth: source nodes whose
counterpart was deleted map to -1, and accuracy is computed over the
matchable nodes only (see :func:`repro.measures.accuracy`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import NoiseError
from repro.graphs.generators import SeedLike, as_rng
from repro.graphs.graph import Graph
from repro.graphs.operations import induced_subgraph, khop_shells, permute_graph
from repro.noise.pairs import GraphPair

__all__ = [
    "node_removal_pair",
    "distance_noise_pair",
    "poisson_edge_pair",
]


def node_removal_pair(
    graph: Graph,
    node_fraction: float,
    seed: SeedLike = None,
    permute: bool = True,
) -> GraphPair:
    """GRAAL-style noise: delete a fraction of the *nodes* from the target.

    The target is the subgraph induced on the surviving nodes, relabeled
    and permuted; deleted counterparts yield -1 ground-truth entries.
    """
    if not 0.0 <= node_fraction < 1.0:
        raise NoiseError(f"node fraction must be in [0, 1), got {node_fraction}")
    rng = as_rng(seed)
    n = graph.num_nodes
    remove = int(round(node_fraction * n))
    if remove >= n:
        raise NoiseError("cannot remove every node")
    removed = set(map(int, rng.choice(n, size=remove, replace=False)))
    survivors = np.array([u for u in range(n) if u not in removed],
                         dtype=np.int64)
    target = induced_subgraph(graph, survivors)

    position = {int(node): idx for idx, node in enumerate(survivors)}
    if permute:
        perm = rng.permutation(target.num_nodes)
        target = permute_graph(target, perm)
    else:
        perm = np.arange(target.num_nodes)
    truth = np.full(n, -1, dtype=np.int64)
    for node, idx in position.items():
        truth[node] = perm[idx]
    return GraphPair(graph, target, truth, "node-removal",
                     float(node_fraction))


def distance_noise_pair(
    graph: Graph,
    noise_level: float,
    seed: SeedLike = None,
    permute: bool = True,
) -> GraphPair:
    """NSD-style noise: rewire edges toward *nearby* non-neighbors.

    Each perturbed edge ``(u, v)`` is replaced by ``(u, w)`` where ``w`` is
    a random node at hop distance 2 from ``u`` — noise correlated with
    graph distance, which perturbs local structure while preserving
    communities far better than uniform rewiring.
    """
    if not 0.0 <= noise_level < 1.0:
        raise NoiseError(f"noise level must be in [0, 1), got {noise_level}")
    rng = as_rng(seed)
    edges = [tuple(map(int, e)) for e in graph.edges()]
    count = int(round(noise_level * len(edges)))
    edge_set = set(edges)
    order = rng.permutation(len(edges))
    if count:
        # Hop-2 shells of the *unmodified* graph, one row per node; sorted
        # columns list each node's candidates in ascending order.
        hop2 = sparse.vstack([shells[1] for _, shells
                              in khop_shells(graph, 2)], format="csr")
        hop2.sort_indices()
    rewired = 0
    for idx in order:
        if rewired == count:
            break
        u, v = edges[idx]
        if (u, v) not in edge_set:
            continue  # already replaced as some other edge's endpoint
        candidates = hop2.indices[hop2.indptr[u]:hop2.indptr[u + 1]]
        candidates = [int(w) for w in candidates
                      if (min(u, w), max(u, w)) not in edge_set]
        if not candidates:
            continue
        w = candidates[int(rng.integers(len(candidates)))]
        edge_set.discard((u, v))
        edge_set.add((min(u, w), max(u, w)))
        rewired += 1
    target = Graph(graph.num_nodes,
                   np.asarray(sorted(edge_set), dtype=np.int64))
    if permute:
        perm = rng.permutation(graph.num_nodes)
        target = permute_graph(target, perm)
        truth = perm.astype(np.int64)
    else:
        truth = np.arange(graph.num_nodes, dtype=np.int64)
    return GraphPair(graph, target, truth, "distance", float(noise_level))


def poisson_edge_pair(
    graph: Graph,
    intensity: float,
    seed: SeedLike = None,
    permute: bool = True,
) -> GraphPair:
    """GWL-style noise: resample edge multiplicities from a Poisson model.

    Each existing edge survives with the probability that a Poisson draw
    with mean ``1 - intensity`` is positive; each non-edge appears with the
    probability of a positive draw at mean ``intensity * density``.  At
    ``intensity = 0`` the target equals the source.
    """
    if not 0.0 <= intensity < 1.0:
        raise NoiseError(f"intensity must be in [0, 1), got {intensity}")
    rng = as_rng(seed)
    n = graph.num_nodes
    keep_prob = 1.0 - np.exp(-(1.0 - intensity) * 3.0)
    add_mean = intensity * graph.density
    edges = graph.edges()
    kept = edges[rng.random(edges.shape[0]) < keep_prob] if edges.size \
        else edges
    edge_set = {tuple(map(int, e)) for e in kept}
    # Sample additions with the expected count of a Poisson superposition.
    expected_new = add_mean * (n * (n - 1) / 2 - graph.num_edges)
    additions = rng.poisson(max(expected_new, 0.0))
    tries = 0
    while additions > 0 and tries < 50 * additions + 100:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        tries += 1
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in edge_set or graph.has_edge(*pair):
            continue
        edge_set.add(pair)
        additions -= 1
    target = Graph(n, np.asarray(sorted(edge_set), dtype=np.int64))
    if permute:
        perm = rng.permutation(n)
        target = permute_graph(target, perm)
        truth = perm.astype(np.int64)
    else:
        truth = np.arange(n, dtype=np.int64)
    return GraphPair(graph, target, truth, "poisson", float(intensity))
