"""Tests for the embedding substrate (xNetMF and NetMF)."""

from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embedding import netmf_embeddings, structural_features, xnetmf_embeddings
from repro.embedding import xnetmf
from repro.exceptions import AlgorithmError
from repro.graphs import Graph, operations, path_graph, star_graph
from repro.graphs.operations import permute_graph
from repro.util import pairwise_sq_dists


def _bfs_reference_features(graph, max_hops, delta, width):
    """Eq. 8 by one breadth-first search per node (the definition)."""
    bucket = np.floor(np.log2(np.maximum(graph.degrees, 1))).astype(np.int64)
    features = np.zeros((graph.num_nodes, width))
    for u in range(graph.num_nodes):
        dist = np.full(graph.num_nodes, -1, dtype=np.int64)
        dist[u] = 0
        queue = deque([u])
        while queue:
            node = queue.popleft()
            if dist[node] == max_hops:
                continue
            for nb in graph.neighbors(node):
                if dist[nb] == -1:
                    dist[nb] = dist[node] + 1
                    queue.append(int(nb))
        for k in range(1, max_hops + 1):
            members = np.flatnonzero(dist == k)
            if members.size == 0:
                break
            hist = np.bincount(bucket[members], minlength=width)
            features[u] += (delta ** (k - 1)) * hist
    return features


@st.composite
def multi_component_graphs(draw):
    """Disjoint union of 1-3 random parts: up to 60 nodes, isolated nodes
    and several components included."""
    parts = draw(st.lists(st.tuples(st.integers(0, 20),
                                    st.sampled_from([0.0, 0.08, 0.2, 0.5]),
                                    st.integers(0, 2 ** 31 - 1)),
                          min_size=1, max_size=3))
    edges, offset = [], 0
    for size, density, seed in parts:
        rng = np.random.default_rng(seed)
        for u in range(size):
            for v in range(u + 1, size):
                if rng.random() < density:
                    edges.append((offset + u, offset + v))
        offset += size
    return Graph(offset, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


class TestStructuralFeatures:
    def test_star_center_vs_leaf(self):
        g = star_graph(9)  # center degree 8, leaves degree 1
        feats = structural_features(g, max_hops=1)
        # Center sees 8 degree-1 neighbors (bucket 0); leaves see one
        # degree-8 neighbor (bucket 3).
        assert feats[0, 0] == 8
        assert feats[1, 3] == 1

    def test_hop_discount(self):
        g = path_graph(5)
        feats = structural_features(g, max_hops=2, delta=0.5)
        # Node 0: hop-1 = {1} (deg 2, bucket 1); hop-2 = {2} (deg 2) * 0.5.
        assert feats[0, 1] == pytest.approx(1.0 + 0.5)

    def test_fixed_width(self, pl_graph):
        feats = structural_features(pl_graph, num_buckets=12)
        assert feats.shape == (pl_graph.num_nodes, 12)

    def test_width_too_small_rejected(self, pl_graph):
        with pytest.raises(AlgorithmError):
            structural_features(pl_graph, num_buckets=1)

    def test_permutation_equivariance(self, pl_graph):
        rng = np.random.default_rng(0)
        perm = rng.permutation(pl_graph.num_nodes)
        permuted = permute_graph(pl_graph, perm)
        feats = structural_features(pl_graph)
        feats_perm = structural_features(permuted)
        assert np.allclose(feats, feats_perm[perm])


class TestStructuralFeaturesKernel:
    """The sparse frontier kernel reproduces the per-node BFS exactly."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(graph=multi_component_graphs(),
           max_hops=st.integers(1, 3),
           delta=st.sampled_from([0.1, 0.5, 1.0]),
           extra_buckets=st.sampled_from([None, 0, 3]),
           block=st.sampled_from([1, 7, 16, 1024]))
    def test_equals_bfs_reference(self, graph, max_hops, delta,
                                  extra_buckets, block):
        max_deg = int(graph.degrees.max()) if graph.num_nodes else 0
        needed = int(np.floor(np.log2(max(max_deg, 1)))) + 1
        num_buckets = None if extra_buckets is None else needed + extra_buckets
        width = needed if num_buckets is None else num_buckets
        with mock.patch.object(operations, "_KHOP_BLOCK", block):
            feats = structural_features(graph, max_hops=max_hops,
                                        delta=delta, num_buckets=num_buckets)
        expected = _bfs_reference_features(graph, max_hops, delta, width)
        assert feats.dtype == expected.dtype
        assert np.array_equal(feats, expected)

    def test_never_runs_a_per_node_bfs(self, pl_graph, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("structural_features called bfs_distances")

        monkeypatch.setattr(operations, "bfs_distances", boom)
        monkeypatch.setattr(xnetmf, "bfs_distances", boom, raising=False)
        feats = structural_features(pl_graph, max_hops=3)
        assert feats.shape[0] == pl_graph.num_nodes

    def test_landmark_blocking_is_exact(self, pl_graph, nw_graph,
                                        monkeypatch):
        feats = np.vstack([structural_features(g, num_buckets=8)
                           for g in (pl_graph, nw_graph)])
        landmarks = feats[np.random.default_rng(0).choice(len(feats), 20,
                                                          replace=False)]
        monkeypatch.setattr(xnetmf, "_SIMILARITY_BLOCK", 10 ** 9)
        whole = xnetmf._landmark_similarities(feats, landmarks, 0.7)
        emb_whole = xnetmf_embeddings([pl_graph, nw_graph], seed=3)
        monkeypatch.setattr(xnetmf, "_SIMILARITY_BLOCK", 7)
        blocked = xnetmf._landmark_similarities(feats, landmarks, 0.7)
        emb_blocked = xnetmf_embeddings([pl_graph, nw_graph], seed=3)
        assert blocked.shape == (len(feats), 20)
        assert np.array_equal(whole, blocked)
        for a, b in zip(emb_whole, emb_blocked):
            assert np.array_equal(a, b)


class TestXnetmf:
    def test_joint_embedding_shapes(self, pl_graph, nw_graph):
        emb_a, emb_b = xnetmf_embeddings([pl_graph, nw_graph], seed=0)
        assert emb_a.shape[0] == pl_graph.num_nodes
        assert emb_b.shape[0] == nw_graph.num_nodes
        assert emb_a.shape[1] == emb_b.shape[1]

    def test_rows_normalized(self, pl_graph):
        (emb,) = xnetmf_embeddings([pl_graph], seed=0)
        norms = np.linalg.norm(emb, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_isomorphic_nodes_land_close(self, pl_graph):
        rng = np.random.default_rng(1)
        perm = rng.permutation(pl_graph.num_nodes)
        permuted = permute_graph(pl_graph, perm)
        emb_a, emb_b = xnetmf_embeddings([pl_graph, permuted], seed=0)
        dists = pairwise_sq_dists(emb_a, emb_b)
        nearest = np.argmin(dists, axis=1)
        # Structural embeddings cannot break all symmetry, but a clear
        # majority of nodes must find their true image nearest.
        assert np.mean(nearest == perm) > 0.5

    def test_landmark_count_override(self, pl_graph):
        emb, = xnetmf_embeddings([pl_graph], num_landmarks=7, seed=0)
        assert emb.shape[1] == 7

    def test_empty_list_rejected(self):
        with pytest.raises(AlgorithmError):
            xnetmf_embeddings([])


class TestNetmf:
    def test_shape_and_clipping(self, pl_graph):
        emb = netmf_embeddings(pl_graph, dim=64)
        assert emb.shape == (pl_graph.num_nodes, 64)
        small = netmf_embeddings(path_graph(5), dim=64)
        assert small.shape == (5, 4)  # clipped to n - 1

    def test_deterministic(self, pl_graph):
        a = netmf_embeddings(pl_graph, dim=16)
        b = netmf_embeddings(pl_graph, dim=16)
        assert np.array_equal(a, b)

    def test_connected_nodes_closer_than_random(self, pl_graph):
        emb = netmf_embeddings(pl_graph, dim=32)
        dists = pairwise_sq_dists(emb, emb)
        edges = pl_graph.edges()
        edge_mean = dists[edges[:, 0], edges[:, 1]].mean()
        assert edge_mean < dists.mean()

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError):
            netmf_embeddings(Graph(0))

    def test_edgeless_graph_zero_embedding(self):
        emb = netmf_embeddings(Graph(4), dim=3)
        assert np.all(emb == 0)

    def test_invalid_window_rejected(self, pl_graph):
        with pytest.raises(AlgorithmError):
            netmf_embeddings(pl_graph, window=0)
