"""Naive federated GNN baseline (paper Section VIII-C).

Every device noises *all* its local graph statistics so the server can train
a GNN on the perturbed data:

* node features — Gaussian mechanism;
* adjacency rows (the device's edges) — binary randomized response: every
  potential edge bit is flipped with probability ``1 - p_keep``;
* labels — randomized response over the label alphabet.

The server then reconstructs a (very noisy) global graph from the uploads and
trains a standard GCN / GAT on it.  This is the "Naive FedGNN" bar of Fig. 3
and Fig. 4 that Lumos beats by 30-75% relative accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..crypto.ldp import GaussianMechanism, RandomizedResponse
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit, NodeSplit
from .centralized import (
    CentralizedResult,
    encoder_config,
    fit_link_predictor,
    fit_node_classifier,
)


@dataclass(frozen=True)
class NaiveFedGNNConfig:
    """Privacy parameters of the naive baseline."""

    feature_epsilon: float = 2.0
    feature_delta: float = 1e-5
    edge_epsilon: float = 2.0
    label_epsilon: float = 1.0
    max_noisy_edges_per_node: float = 1.0
    """Cap (as a multiple of the average true degree) on spurious edges kept
    per node, so the perturbed graph stays sparse enough to train on.  The
    randomized-response output over all :math:`O(n^2)` pairs would otherwise
    be almost complete; a real deployment would subsample it the same way."""


def perturb_graph(
    graph: Graph, config: NaiveFedGNNConfig, rng: np.random.Generator
) -> Tuple[Graph, np.ndarray]:
    """Return the noised graph the server reconstructs, plus the noised labels."""
    graph = graph.normalized_features(0.0, 1.0)
    gaussian = GaussianMechanism(config.feature_epsilon, config.feature_delta, sensitivity=1.0)
    noisy_features = gaussian.randomize(graph.features, rng=rng)

    edge_rr = RandomizedResponse(config.edge_epsilon, num_categories=2)
    keep_probability = edge_rr.keep_probability
    flip_probability = 1.0 - keep_probability

    # True edges: each survives with probability p_keep.
    survived = graph.edges[rng.random(graph.num_edges) < keep_probability]

    # Non-edges: each of the ~n^2/2 pairs flips to 1 with probability
    # flip_probability.  Materialising them all would swamp the server, so we
    # sample the number of spurious edges from the exact Binomial and then cap
    # it (documented substitution; see NaiveFedGNNConfig.max_noisy_edges_per_node).
    num_pairs = graph.num_nodes * (graph.num_nodes - 1) // 2
    expected_spurious = int(rng.binomial(max(num_pairs - graph.num_edges, 0), flip_probability))
    cap = int(config.max_noisy_edges_per_node * graph.degrees().mean() * graph.num_nodes)
    num_spurious = min(expected_spurious, cap)
    existing = graph.edge_set()
    spurious = []
    attempts = 0
    while len(spurious) < num_spurious and attempts < num_spurious * 10 + 100:
        attempts += 1
        u = int(rng.integers(graph.num_nodes))
        v = int(rng.integers(graph.num_nodes))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing:
            continue
        spurious.append(key)
    noisy_edges = (
        np.concatenate([survived.reshape(-1, 2), np.asarray(spurious, dtype=np.int64).reshape(-1, 2)])
        if spurious
        else survived.reshape(-1, 2)
    )

    noisy_labels = graph.labels
    if graph.labels is not None:
        label_rr = RandomizedResponse(config.label_epsilon, num_categories=graph.num_classes)
        noisy_labels = label_rr.randomize(graph.labels, rng=rng)

    noisy_graph = Graph(
        num_nodes=graph.num_nodes,
        edges=noisy_edges,
        features=noisy_features,
        labels=graph.labels,
        name=f"{graph.name}-noised",
    )
    return noisy_graph, noisy_labels


def train_naive_fedgnn_supervised(
    graph: Graph,
    split: NodeSplit,
    backbone: str = "gcn",
    epochs: int = 300,
    learning_rate: float = 0.01,
    config: NaiveFedGNNConfig = NaiveFedGNNConfig(),
    hidden_dim: int = 16,
    output_dim: int = 16,
    dropout: float = 0.01,
    num_heads: int = 4,
    seed: int = 0,
) -> CentralizedResult:
    """Train the naive baseline for node classification.

    The server trains on noised features, a noised edge set and noised
    *training* labels; evaluation uses the true labels of the val/test sets
    (the devices evaluate locally against their own ground truth).
    """
    if graph.labels is None:
        raise ValueError("supervised training requires labels")
    rng = np.random.default_rng(seed)
    noisy_graph, noisy_labels = perturb_graph(graph, config, rng)
    return fit_node_classifier(
        noisy_graph, noisy_graph.features, noisy_labels, graph.labels, split,
        encoder_config(backbone, hidden_dim, output_dim, dropout, num_heads),
        learning_rate, epochs, rng,
    )


def train_naive_fedgnn_unsupervised(
    graph: Graph,
    edge_split: EdgeSplit,
    backbone: str = "gcn",
    epochs: int = 300,
    learning_rate: float = 0.01,
    config: NaiveFedGNNConfig = NaiveFedGNNConfig(),
    hidden_dim: int = 16,
    output_dim: int = 16,
    dropout: float = 0.01,
    num_heads: int = 4,
    seed: int = 0,
) -> CentralizedResult:
    """Train the naive baseline for link prediction (AUC evaluated on true edges)."""
    rng = np.random.default_rng(seed)
    noisy_graph, _ = perturb_graph(edge_split.training_graph(graph), config, rng)
    # The server only sees the noised edges, so it supervises on them.
    train_pairs = noisy_graph.edges if noisy_graph.num_edges else edge_split.train_edges
    return fit_link_predictor(
        noisy_graph, train_pairs, edge_split,
        encoder_config(backbone, hidden_dim, output_dim, dropout, num_heads),
        learning_rate, epochs, rng,
    )
