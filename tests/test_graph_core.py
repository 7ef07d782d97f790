"""Tests for the Graph data structure, sparse helpers, node-level partition and splits."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.tree_cases import graph_cases
from repro.graph import (
    Graph,
    partition_node_level,
    sample_negative_edges,
    split_edges,
    split_nodes,
)
from repro.graph.sparse import (
    add_self_loops,
    row_normalize,
    symmetric_normalize,
)


def triangle_graph() -> Graph:
    features = np.arange(6, dtype=float).reshape(3, 2)
    return Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2], [0, 2]]), features=features,
                 labels=np.array([0, 1, 0]))


def _check_csr_rows(case):
    # The one-pass CSR equals the dictionary a loop over the edges fills, and
    # the node-level partition is that CSR plus the features, read-only.
    num_nodes, edge_list = case
    edges = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    features = np.arange(2.0 * num_nodes).reshape(num_nodes, 2)
    graph = Graph(num_nodes=num_nodes, edges=edges, features=features)
    expected = {vertex: set() for vertex in range(num_nodes)}
    for u, v in edge_list:
        expected[u].add(v)
        expected[v].add(u)
    indptr, indices, partition_features = partition_node_level(graph)
    assert indptr is graph.csr[0] and indices is graph.csr[1]
    assert indptr.tolist() == np.cumsum([0] + [len(expected[v]) for v in range(num_nodes)]).tolist()
    for vertex in range(num_nodes):
        neighbors = graph.neighbors(vertex)
        assert neighbors.dtype == np.int64
        assert neighbors.tolist() == sorted(expected[vertex])
        assert indices[indptr[vertex] : indptr[vertex + 1]].tolist() == sorted(expected[vertex])
    np.testing.assert_array_equal(
        graph.degrees(), [len(expected[vertex]) for vertex in range(num_nodes)]
    )
    np.testing.assert_array_equal(partition_features, features)
    for array in (indptr, indices, partition_features):
        assert not array.flags.writeable


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
        np.testing.assert_array_equal(graph.neighbors(np.int32(2)), [0, 1])
        assert graph.degrees()[1] == 2
        with pytest.raises(ValueError):
            graph.neighbors(99)

    @pytest.mark.parametrize("vertex", [0.5, 1.0, True, np.float64(0.0), "0"])
    def test_neighbors_of_a_non_integer_is_a_type_error(self, vertex):
        # 0.5 used to read as no vertex at all (an empty row), True as vertex 1.
        with pytest.raises(TypeError, match="vertex ids are integers"):
            triangle_graph().neighbors(vertex)

    @pytest.mark.parametrize(
        "edges, features, labels, complaint",
        [
            ([[0, 1.7]], np.zeros((3, 1)), None, "edge endpoints must be integers, got 1.7"),
            ([[0, np.nan]], np.zeros((3, 1)), None, "edge endpoints must be integers, got nan"),
            ([[0, 1]], np.zeros((3, 1)), [0.5, 0, 1], "labels must be integers, got 0.5"),
            ([[0, 1]], np.zeros((3, 1)), [0, -1, 1], "non-negative: vertex 1 has -1"),
            ([[0, 1]], [[0.0], [np.nan], [1.0]], None, "finite: vertex 1 has a NaN or inf"),
            ([[0, 1]], [[0.0], [1.0], [-np.inf]], None, "finite: vertex 2 has a NaN or inf"),
        ],
        ids=["fractional-edge", "nan-edge", "fractional-label", "negative-label",
             "nan-feature", "inf-feature"],
    )
    def test_rejects_malformed_inputs(self, edges, features, labels, complaint):
        # Each was accepted silently: 1.7 stored as 1, 0.5 as label 0, -1 as
        # the last class, NaN features trained on.
        with pytest.raises(ValueError, match=complaint):
            Graph(num_nodes=3, edges=np.asarray(edges), features=np.asarray(features),
                  labels=labels)

    def test_integral_floats_are_integers(self):
        graph = Graph(num_nodes=3, edges=np.array([[0.0, 1.0]]), features=np.zeros((3, 1)),
                      labels=np.array([0.0, 2.0, 1.0]))
        assert graph.edges.tolist() == [[0, 1]] and graph.labels.tolist() == [0, 2, 1]
        assert graph.edges.dtype == graph.labels.dtype == np.int64

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

    @pytest.mark.parametrize("attribute", ["edges", "features", "labels"])
    def test_arrays_cannot_be_written_in_place(self, attribute):
        # Fingerprints and normalized twins are memoised per graph object, so
        # an in-place write would go unseen by every cache.
        features = np.arange(6, dtype=float).reshape(3, 2)
        graph = Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]), features=features,
                      labels=np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="read-only"):
            getattr(graph, attribute)[0] = 0
        # Only the graph's views are locked: the caller's array is untouched.
        assert features.flags.writeable
        assert graph.with_edges(np.array([[0, 2]])).num_edges == 1

    def test_a_write_through_the_callers_arrays_does_not_reach_the_graph(self):
        from repro.engine.fingerprint import fingerprint_graph

        features = np.arange(6, dtype=float).reshape(3, 2)
        labels = np.array([0, 1, 0])
        graph = Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]), features=features,
                      labels=labels)
        digest = fingerprint_graph(graph)
        features[:] = 0
        labels[:] = 5
        np.testing.assert_array_equal(graph.features, np.arange(6, dtype=float).reshape(3, 2))
        np.testing.assert_array_equal(graph.labels, [0, 1, 0])
        assert fingerprint_graph(graph) == digest
        assert digest == fingerprint_graph(
            Graph(num_nodes=3, edges=np.array([[0, 1], [1, 2]]),
                  features=np.arange(6, dtype=float).reshape(3, 2), labels=np.array([0, 1, 0]))
        )

    def test_empty_graph(self):
        graph = Graph(num_nodes=3, edges=np.zeros((0, 2)), features=np.zeros((3, 1)))
        assert graph.num_edges == 0
        np.testing.assert_array_equal(graph.degrees(), [0, 0, 0])
        assert graph.neighbors(0).size == 0

    @settings(max_examples=60, deadline=400)
    @given(graph_cases(12))
    def test_csr_rows_equal_the_per_edge_loop(self, case):
        _check_csr_rows(case)

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None)
    @given(graph_cases(60))
    def test_csr_rows_equal_the_per_edge_loop_wide(self, case):
        _check_csr_rows(case)


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


class TestNodeLevelPartition:
    def test_partition_is_the_graphs_csr_and_features(self, small_graph):
        indptr, indices, features = partition_node_level(small_graph)
        assert indptr.shape == (small_graph.num_nodes + 1,)
        np.testing.assert_array_equal(indices[indptr[0] : indptr[1]], small_graph.neighbors(0))
        assert np.shares_memory(features, small_graph.features)
        # Every edge appears once from each endpoint, nothing else does.
        sources = np.repeat(np.arange(small_graph.num_nodes), np.diff(indptr))
        assert {(min(u, v), max(u, v)) for u, v in zip(sources.tolist(), indices.tolist())} == (
            small_graph.edge_set()
        )
        assert indices.shape == (2 * small_graph.num_edges,)

    def test_partition_cannot_be_tampered_with(self, small_graph):
        for array in partition_node_level(small_graph):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # The partition's features are the graph's own read-only matrix.
        assert not small_graph.features.flags.writeable


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
