"""Centralized GNN baseline (upper bound).

The server holds the entire graph — edges, features and labels — and trains a
standard 2-layer GCN or GAT.  This is the non-private reference Lumos is
compared against in Fig. 3 and Fig. 4.

The two training bodies every comparison method ends in live here too:
:func:`fit_node_classifier` and :func:`fit_link_predictor` are model set-up
plus the closures they hand the shared loop, :func:`repro.nn.fit.fit`; a
method differs only in the structure, features and labels it passes in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..eval.metrics import accuracy
from ..gnn.link_prediction import link_prediction_objective, roc_auc_from_embeddings
from ..gnn.models import EncoderConfig, GraphInput, LinkPredictor, NodeClassifier
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit, NodeSplit
from ..nn.fit import fit
from ..nn.loss import cross_entropy
from ..nn.tensor import Tensor


@dataclass
class CentralizedResult:
    """Outcome of a centralized training run."""

    test_accuracy: float = 0.0
    test_auc: float = 0.0
    best_val_metric: float = 0.0
    losses: List[float] = field(default_factory=list)


def encoder_config(
    backbone: str, hidden_dim: int, output_dim: int, dropout: float, num_heads: int
) -> EncoderConfig:
    """The paper's two-layer encoder with the baselines' shared keyword arguments."""
    return EncoderConfig(
        backbone=backbone,
        num_layers=2,
        hidden_dim=hidden_dim,
        output_dim=output_dim,
        dropout=dropout,
        num_heads=num_heads,
    )


def fit_node_classifier(
    structure: Graph,
    features: np.ndarray,
    train_labels: np.ndarray,
    true_labels: np.ndarray,
    split: NodeSplit,
    encoder: EncoderConfig,
    learning_rate: float,
    epochs: int,
    rng: np.random.Generator,
) -> CentralizedResult:
    """Train a node classifier on ``(structure, features, train_labels)``.

    Whatever a method noised goes in through those three; validation and test
    accuracy are always scored against ``true_labels`` (the devices evaluate
    locally against their own ground truth).
    """
    graph_input = GraphInput.from_graph(structure)
    model = NodeClassifier(features.shape[1], int(true_labels.max()) + 1, encoder, rng=rng)
    inputs = Tensor(features)

    def loss(_epoch: int) -> Tensor:
        return cross_entropy(model(inputs, graph_input), train_labels, mask=split.train_mask)

    def evaluate():
        predictions = np.argmax(model(inputs, graph_input).data, axis=1)
        return accuracy(true_labels, predictions, split.val_mask), predictions

    run = fit(model, learning_rate, epochs, loss, evaluate)
    return CentralizedResult(
        test_accuracy=accuracy(true_labels, run.best_output, split.test_mask),
        best_val_metric=run.best_metric,
        losses=run.losses,
    )


def fit_link_predictor(
    structure: Graph,
    train_pairs: np.ndarray,
    edge_split: EdgeSplit,
    encoder: EncoderConfig,
    learning_rate: float,
    epochs: int,
    rng: np.random.Generator,
) -> CentralizedResult:
    """Train a link predictor on ``structure`` (its edges and features),
    supervised on ``train_pairs``; AUC is scored on the split's true edges."""
    graph_input = GraphInput.from_graph(structure)
    model = LinkPredictor(structure.num_features, encoder, rng=rng)
    inputs = Tensor(structure.features)
    objective = link_prediction_objective(train_pairs, structure.num_nodes, rng)

    def loss(_epoch: int) -> Tensor:
        return objective(model(inputs, graph_input))

    def evaluate():
        embeddings = model(inputs, graph_input).data
        return (
            roc_auc_from_embeddings(embeddings, edge_split.val_edges, edge_split.val_negatives),
            embeddings,
        )

    run = fit(model, learning_rate, epochs, loss, evaluate)
    return CentralizedResult(
        test_auc=roc_auc_from_embeddings(
            run.best_output, edge_split.test_edges, edge_split.test_negatives
        ),
        best_val_metric=run.best_metric,
        losses=run.losses,
    )


def train_centralized_supervised(
    graph: Graph,
    split: NodeSplit,
    backbone: str = "gcn",
    epochs: int = 300,
    learning_rate: float = 0.01,
    hidden_dim: int = 16,
    output_dim: int = 16,
    dropout: float = 0.01,
    num_heads: int = 4,
    seed: int = 0,
) -> CentralizedResult:
    """Train a centralized node classifier and report test accuracy."""
    if graph.labels is None:
        raise ValueError("supervised training requires labels")
    graph = graph.normalized_features(0.0, 1.0)
    return fit_node_classifier(
        graph, graph.features, graph.labels, graph.labels, split,
        encoder_config(backbone, hidden_dim, output_dim, dropout, num_heads),
        learning_rate, epochs, np.random.default_rng(seed),
    )


def train_centralized_unsupervised(
    graph: Graph,
    edge_split: EdgeSplit,
    backbone: str = "gcn",
    epochs: int = 300,
    learning_rate: float = 0.01,
    hidden_dim: int = 16,
    output_dim: int = 16,
    dropout: float = 0.01,
    num_heads: int = 4,
    seed: int = 0,
) -> CentralizedResult:
    """Train a centralized link predictor and report test ROC-AUC."""
    training_graph = edge_split.training_graph(graph.normalized_features(0.0, 1.0))
    return fit_link_predictor(
        training_graph, edge_split.train_edges, edge_split,
        encoder_config(backbone, hidden_dim, output_dim, dropout, num_heads),
        learning_rate, epochs, np.random.default_rng(seed),
    )
