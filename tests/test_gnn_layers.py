"""Tests for the GCN / GAT layers, encoders, task heads and the oracle's pooling."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import (
    EncoderConfig,
    GATLayer,
    GCNLayer,
    GNNEncoder,
    GraphInput,
    NodeClassifier,
)
from repro.graph import Graph, split_nodes
from repro.graph.sparse import symmetric_normalize
from repro.nn import Adam, Tensor, cross_entropy
from repro.nn.backend import PreparedEdges, PreparedMatrix

from helpers.autograd import mean_pool


def path_graph() -> Graph:
    return Graph(
        num_nodes=4,
        edges=np.array([[0, 1], [1, 2], [2, 3]]),
        features=np.eye(4),
        labels=np.array([0, 0, 1, 1]),
    )


class TestGCNLayer:
    def test_output_shape(self):
        graph = path_graph()
        adjacency = PreparedMatrix(symmetric_normalize(graph.adjacency()))
        layer = GCNLayer(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), adjacency)
        assert out.shape == (4, 3)

    def test_identity_adjacency_reduces_to_linear(self):
        layer = GCNLayer(3, 2, rng=np.random.default_rng(0))
        features = Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        identity = PreparedMatrix(sp.eye(5, format="csr"))
        out = layer(features, identity)
        expected = features.data @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_message_passing_mixes_neighbours(self):
        # With one-hot features, a node's output depends on its neighbours.
        graph = path_graph()
        adjacency = PreparedMatrix(symmetric_normalize(graph.adjacency()))
        layer = GCNLayer(4, 4, bias=False, rng=np.random.default_rng(0))
        layer.weight.data = np.eye(4)
        out = layer(Tensor(graph.features), adjacency).data
        assert out[1, 0] > 0  # node 1 received mass from node 0
        assert out[3, 0] == pytest.approx(0.0)  # node 3 is two hops from node 0

    def test_gradients_flow_to_weights(self):
        graph = path_graph()
        adjacency = PreparedMatrix(symmetric_normalize(graph.adjacency()))
        layer = GCNLayer(4, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), adjacency)
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None

    def test_shape_mismatch_raises(self):
        layer = GCNLayer(4, 2)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((3, 4))), PreparedMatrix(sp.eye(5, format="csr")))

    def test_raw_adjacency_is_a_type_error(self):
        # The layer takes structure prepared by the graph's owner only.
        with pytest.raises(TypeError, match="PreparedMatrix"):
            GCNLayer(4, 2)(Tensor(np.ones((3, 4))), sp.eye(3, format="csr"))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            GCNLayer(0, 3)


class TestGATLayer:
    def _edge_index(self, graph: Graph) -> PreparedEdges:
        return PreparedEdges(graph.directed_edge_index(add_self_loops=True), graph.num_nodes)

    def test_output_shape_concat(self):
        graph = path_graph()
        layer = GATLayer(4, 3, num_heads=2, concat_heads=True, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), self._edge_index(graph))
        assert out.shape == (4, 6)

    def test_output_shape_average(self):
        graph = path_graph()
        layer = GATLayer(4, 3, num_heads=4, concat_heads=False, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), self._edge_index(graph))
        assert out.shape == (4, 3)

    def test_isolated_node_with_self_loop_is_finite(self):
        features = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        edges = PreparedEdges(np.array([[0, 1, 2], [0, 1, 2]]), 3)  # only self loops
        layer = GATLayer(4, 2, num_heads=2, rng=np.random.default_rng(1))
        out = layer(features, edges)
        assert np.all(np.isfinite(out.data))

    def test_gradients_flow_to_attention_parameters(self):
        graph = path_graph()
        layer = GATLayer(4, 2, num_heads=2, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), self._edge_index(graph))
        out.sum().backward()
        assert layer.attention_src.grad is not None
        assert layer.attention_dst.grad is not None
        assert layer.weight.grad is not None

    def test_edge_index_validation(self):
        with pytest.raises(ValueError):
            PreparedEdges(np.ones((3, 3), dtype=np.int64), 3)

    def test_raw_edge_index_is_a_type_error(self):
        # The layer takes the plan prepared by the graph's owner only.
        with pytest.raises(TypeError, match="PreparedEdges"):
            GATLayer(4, 2)(Tensor(np.ones((3, 4))), np.array([[0, 1, 2], [0, 1, 2]]))

    def test_plan_for_another_node_count_is_rejected(self):
        with pytest.raises(ValueError, match="different number of nodes"):
            GATLayer(4, 2)(Tensor(np.ones((3, 4))), PreparedEdges(np.array([[0], [0]]), 5))

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            GATLayer(4, 2, num_heads=0)


class TestEncodersAndHeads:
    def test_encoder_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(backbone="sage")
        with pytest.raises(ValueError):
            EncoderConfig(num_layers=0)

    @pytest.mark.parametrize("backbone", ["gcn", "gat"])
    def test_encoder_output_dimension(self, backbone):
        graph = path_graph()
        encoder = GNNEncoder(4, EncoderConfig(backbone=backbone, hidden_dim=8, output_dim=6),
                             rng=np.random.default_rng(0))
        out = encoder(Tensor(graph.features), GraphInput.from_graph(graph))
        assert out.shape == (4, 6)

    def test_graph_input_validation(self):
        with pytest.raises(ValueError):
            GraphInput(sp.eye(3, format="csr"), np.ones((3, 2)))

    @pytest.mark.parametrize("backbone", ["gcn", "gat"])
    def test_node_classifier_learns_small_graph(self, backbone):
        from repro.graph import generate_facebook_like

        graph = generate_facebook_like(seed=0, num_nodes=150)
        split = split_nodes(graph, seed=0)
        model = NodeClassifier(graph.num_features, graph.num_classes,
                               EncoderConfig(backbone=backbone), rng=np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=0.05)
        graph_input = GraphInput.from_graph(graph)
        tensor = Tensor(graph.features)
        for _ in range(60):
            model.train()
            loss = cross_entropy(model(tensor, graph_input), graph.labels, mask=split.train_mask)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        model.eval()
        predictions = np.argmax(model(tensor, graph_input).data, axis=1)
        accuracy = (predictions[split.test_mask] == graph.labels[split.test_mask]).mean()
        assert accuracy > 0.7


class TestPooling:
    """``helpers.autograd.mean_pool``: Eq. 31 as the composite oracle runs it."""

    def test_mean_pool(self):
        embeddings = Tensor(np.array([[2.0], [4.0], [10.0]]))
        out = mean_pool(embeddings, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [10.0]])

    def test_mean_pool_empty_segment_is_zero(self):
        embeddings = Tensor(np.array([[2.0]]))
        out = mean_pool(embeddings, np.array([1]), 3)
        np.testing.assert_allclose(out.data, [[0.0], [2.0], [0.0]])

    def test_mean_pool_gradient_splits_equally(self):
        embeddings = Tensor(np.ones((4, 2)), requires_grad=True)
        out = mean_pool(embeddings, np.array([0, 0, 0, 1]), 2)
        out.sum().backward()
        np.testing.assert_allclose(embeddings.grad, [[1 / 3] * 2] * 3 + [[1.0] * 2])
