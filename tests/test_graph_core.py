"""Tests for the Graph data structure, sparse helpers, ego partition and splits."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    EgoNetwork,
    Graph,
    partition_node_level,
    sample_negative_edges,
    split_edges,
    split_nodes,
    validate_partition,
)
from repro.graph.sparse import (
    add_self_loops,
    laplacian,
    row_normalize,
    symmetric_normalize,
)


def triangle_graph() -> Graph:
    features = np.arange(6, dtype=float).reshape(3, 2)
    return Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2], [0, 2]]), features=features,
                 labels=np.array([0, 1, 0]))


class TestGraph:
    def test_basic_properties(self):
        graph = triangle_graph()
        assert graph.num_nodes == 3
        assert graph.num_edges == 3
        assert graph.num_features == 2
        assert graph.num_classes == 2
        np.testing.assert_array_equal(graph.degrees(), [2, 2, 2])

    def test_edges_are_canonicalised_and_deduplicated(self):
        graph = Graph(
            num_nodes=3,
            edges=np.array([[1, 0], [0, 1], [2, 1]]),
            features=np.zeros((3, 1)),
        )
        assert graph.num_edges == 2
        assert np.all(graph.edges[:, 0] < graph.edges[:, 1])

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, edges=np.array([[0, 0]]), features=np.zeros((2, 1)))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, edges=np.array([[0, 5]]), features=np.zeros((2, 1)))

    def test_rejects_bad_feature_shape(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=3, edges=np.array([[0, 1]]), features=np.zeros((2, 1)))

    def test_rejects_bad_label_shape(self):
        with pytest.raises(ValueError):
            Graph(num_nodes=2, edges=np.array([[0, 1]]), features=np.zeros((2, 1)),
                  labels=np.array([0]))

    def test_neighbors_and_degree(self):
        graph = triangle_graph()
        np.testing.assert_array_equal(graph.neighbors(0), [1, 2])
        assert graph.degrees()[1] == 2
        with pytest.raises(ValueError):
            graph.neighbors(99)

    def test_edge_set_is_canonical(self):
        edge_set = triangle_graph().edge_set()
        assert edge_set == {(0, 1), (1, 2), (0, 2)}

    def test_adjacency_symmetry_and_self_loops(self):
        graph = triangle_graph()
        adjacency = graph.adjacency()
        assert (adjacency != adjacency.T).nnz == 0
        with_loops = graph.adjacency(add_self_loops=True)
        np.testing.assert_allclose(with_loops.diagonal(), np.ones(3))

    def test_directed_edge_index(self):
        graph = triangle_graph()
        index = graph.directed_edge_index()
        assert index.shape == (2, 6)
        index_loops = graph.directed_edge_index(add_self_loops=True)
        assert index_loops.shape == (2, 9)

    def test_with_edges_keeps_features(self):
        graph = triangle_graph()
        smaller = graph.with_edges(np.array([[0, 1]]))
        assert smaller.num_edges == 1
        np.testing.assert_allclose(smaller.features, graph.features)

    def test_normalized_features_bounds(self):
        graph = Graph(num_nodes=2, edges=np.array([[0, 1]]),
                      features=np.array([[10.0, -5.0], [20.0, 5.0]]))
        scaled = graph.normalized_features(0.0, 1.0)
        assert scaled.features.min() == pytest.approx(0.0)
        assert scaled.features.max() == pytest.approx(1.0)

    def test_normalized_features_handles_constant_column(self):
        graph = Graph(num_nodes=2, edges=np.array([[0, 1]]),
                      features=np.array([[3.0], [3.0]]))
        scaled = graph.normalized_features()
        assert np.all(np.isfinite(scaled.features))

    def test_summary_keys(self):
        summary = triangle_graph().summary()
        assert {"num_nodes", "num_edges", "avg_degree", "max_degree"} <= set(summary)

    def test_empty_graph(self):
        graph = Graph(num_nodes=3, edges=np.zeros((0, 2)), features=np.zeros((3, 1)))
        assert graph.num_edges == 0
        np.testing.assert_array_equal(graph.degrees(), [0, 0, 0])
        assert graph.neighbors(0).size == 0

    @settings(max_examples=60, deadline=400)
    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
                    .filter(lambda edge: edge[0] != edge[1]),
                    max_size=30 if n > 1 else 0,
                ),
            )
        )
    )
    def test_neighbor_cache_equals_the_per_edge_loop(self, case):
        # Isolated vertices, vertices with one edge, duplicate and reversed
        # edges, the empty graph: the one-pass CSR equals the dictionary the
        # loop over edges used to fill.
        num_nodes, edge_list = case
        edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
        graph = Graph(num_nodes=num_nodes, edges=edges, features=np.zeros((num_nodes, 1)))
        expected = {vertex: set() for vertex in range(num_nodes)}
        for u, v in edge_list:
            expected[u].add(v)
            expected[v].add(u)
        for vertex in range(num_nodes):
            neighbors = graph.neighbors(vertex)
            assert neighbors.dtype == np.int64
            assert neighbors.tolist() == sorted(expected[vertex])
        np.testing.assert_array_equal(
            graph.degrees(), [len(expected[vertex]) for vertex in range(num_nodes)]
        )


class TestSparseHelpers:
    def test_symmetric_normalize_row_sums(self):
        graph = triangle_graph()
        normalized = symmetric_normalize(graph.adjacency())
        # For a regular graph with self loops, rows sum to 1.
        np.testing.assert_allclose(np.asarray(normalized.sum(axis=1)).ravel(), np.ones(3))

    def test_symmetric_normalize_handles_isolated_nodes(self):
        adjacency = sp.csr_matrix((3, 3))
        normalized = symmetric_normalize(adjacency, self_loops=False)
        assert np.all(np.isfinite(normalized.toarray()))

    def test_row_normalize_is_stochastic(self):
        graph = triangle_graph()
        normalized = row_normalize(graph.adjacency(), self_loops=True)
        np.testing.assert_allclose(np.asarray(normalized.sum(axis=1)).ravel(), np.ones(3))

    def test_add_self_loops(self):
        adjacency = triangle_graph().adjacency()
        looped = add_self_loops(adjacency)
        np.testing.assert_allclose(looped.diagonal(), np.ones(3))

    def test_laplacian_eigenvalues_nonnegative(self):
        graph = triangle_graph()
        lap = laplacian(graph.adjacency()).toarray()
        eigenvalues = np.linalg.eigvalsh(lap)
        assert eigenvalues.min() > -1e-10


class TestEgoPartition:
    def test_partition_covers_all_vertices_and_edges(self, small_graph):
        partition = partition_node_level(small_graph)
        assert len(partition) == small_graph.num_nodes
        validate_partition(small_graph, partition)

    def test_ego_network_contents(self, small_graph):
        partition = partition_node_level(small_graph)
        ego = partition[0]
        assert ego.center == 0
        np.testing.assert_array_equal(ego.neighbors, small_graph.neighbors(0))
        np.testing.assert_allclose(ego.feature, small_graph.features[0])
        assert ego.label == int(small_graph.labels[0])
        assert ego.degree == len(small_graph.neighbors(0))

    def test_ego_network_rejects_self_neighbour(self):
        with pytest.raises(ValueError):
            EgoNetwork(center=1, neighbors=[1, 2], feature=np.zeros(2))

    def test_validate_partition_detects_tampering(self, small_graph):
        partition = partition_node_level(small_graph)
        tampered = dict(partition)
        ego = tampered[0]
        tampered[0] = EgoNetwork(
            center=0, neighbors=ego.neighbors[:-1], feature=ego.feature, label=ego.label
        )
        with pytest.raises(ValueError):
            validate_partition(small_graph, tampered)

    def test_edge_tuples_are_canonical(self):
        ego = EgoNetwork(center=5, neighbors=[2, 7], feature=np.zeros(1))
        assert ego.edge_tuples() == [(2, 5), (5, 7)]
        assert ego.has_neighbor(2) and not ego.has_neighbor(3)


class TestSplits:
    def test_node_split_proportions(self, small_graph):
        split = split_nodes(small_graph, seed=1)
        n = small_graph.num_nodes
        assert split.train_mask.sum() == pytest.approx(0.5 * n, abs=1)
        assert split.val_mask.sum() == pytest.approx(0.25 * n, abs=1)
        assert (split.train_mask | split.val_mask | split.test_mask).all()

    def test_node_split_masks_are_disjoint(self, small_graph):
        split = split_nodes(small_graph, seed=2)
        assert not (split.train_mask & split.val_mask).any()
        assert not (split.train_mask & split.test_mask).any()
        assert not (split.val_mask & split.test_mask).any()

    def test_node_split_is_seeded(self, small_graph):
        first = split_nodes(small_graph, seed=3)
        second = split_nodes(small_graph, seed=3)
        np.testing.assert_array_equal(first.train_mask, second.train_mask)

    def test_node_split_validation(self, small_graph):
        with pytest.raises(ValueError):
            split_nodes(small_graph, train_fraction=0.9, val_fraction=0.2)
        with pytest.raises(ValueError):
            split_nodes(small_graph, train_fraction=0.0)

    def test_edge_split_partition(self, small_graph):
        split = split_edges(small_graph, seed=0)
        total = len(split.train_edges) + len(split.val_edges) + len(split.test_edges)
        assert total == small_graph.num_edges
        assert len(split.val_negatives) == len(split.val_edges)
        assert len(split.test_negatives) == len(split.test_edges)

    def test_edge_split_negatives_are_not_edges(self, small_graph):
        split = split_edges(small_graph, seed=0)
        edge_set = small_graph.edge_set()
        for u, v in np.concatenate([split.val_negatives, split.test_negatives]):
            assert (min(u, v), max(u, v)) not in edge_set

    def test_training_graph_excludes_heldout_edges(self, small_graph):
        split = split_edges(small_graph, seed=0)
        train_graph = split.training_graph(small_graph)
        train_set = train_graph.edge_set()
        for u, v in split.test_edges:
            assert (min(u, v), max(u, v)) not in train_set

    def test_sample_negative_edges_rejects_dense_request(self):
        graph = triangle_graph()  # complete graph on 3 nodes — no negatives exist
        with pytest.raises(RuntimeError):
            sample_negative_edges(graph, 5, np.random.default_rng(0))

    def test_edge_split_requires_enough_edges(self):
        with pytest.raises(ValueError):
            split_edges(triangle_graph(), seed=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_node_split_property_all_assigned_once(self, seed):
        from repro.graph import generate_small_world

        graph = generate_small_world(num_nodes=40, seed=seed % 17)
        split = split_nodes(graph, seed=seed)
        counts = (
            split.train_mask.astype(int) + split.val_mask.astype(int) + split.test_mask.astype(int)
        )
        assert np.all(counts == 1)
