"""LPGNN baseline (Sajadmanesh & Gatica-Perez, CCS 2021).

LPGNN ("Locally Private Graph Neural Networks") assumes the *server owns the
graph structure* and protects only node features and labels:

* features are released with a multi-bit LDP encoder under budget ``eps_x``
  (we reuse the 1-bit mechanism applied to every element, which is the m=1
  multi-bit special case) and denoised on the server with **KProp** — a
  k-hop mean aggregation over the known graph that averages out the injected
  noise;
* labels are released through randomized response under budget ``eps_y`` and
  the model is trained on the noisy training labels (we include the label
  correction step of Drop: training on the KProp-smoothed label distribution).

The paper's experiments use ``eps_x = 2`` and ``eps_y = 1``; LPGNN is only
evaluated on the supervised task (its design is label-centric), matching
Section VIII-C of the Lumos paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..crypto.ldp import FeatureBounds, OneBitMechanism, RandomizedResponse
from ..graph.graph import Graph
from ..graph.sparse import row_normalize
from ..graph.splits import NodeSplit
from .centralized import CentralizedResult, encoder_config, fit_node_classifier


@dataclass(frozen=True)
class LPGNNConfig:
    """Privacy and denoising parameters of the LPGNN baseline."""

    feature_epsilon: float = 2.0
    label_epsilon: float = 1.0
    kprop_steps: int = 2
    label_kprop_steps: int = 1

    def __post_init__(self) -> None:
        if self.feature_epsilon <= 0 or self.label_epsilon <= 0:
            raise ValueError("privacy budgets must be positive")
        if self.kprop_steps < 0 or self.label_kprop_steps < 0:
            raise ValueError("KProp step counts must be non-negative")


def _kprop(values: np.ndarray, propagation: sp.csr_matrix, steps: int) -> np.ndarray:
    """k-step mean aggregation used by LPGNN to denoise LDP features."""
    result = values
    for _ in range(steps):
        result = propagation @ result
    return result


def encode_features_lpgnn(
    graph: Graph, config: LPGNNConfig, rng: np.random.Generator
) -> np.ndarray:
    """LDP-encode every feature element and denoise with KProp."""
    graph = graph.normalized_features(0.0, 1.0)
    mechanism = OneBitMechanism(config.feature_epsilon, FeatureBounds(0.0, 1.0))
    dimension = graph.num_features
    # The multi-bit encoder spreads eps_x across all d elements: per-element
    # budget eps_x / d, i.e. workload=1 in the OneBitMechanism parametrisation.
    encoded = np.empty_like(graph.features)
    for vertex in range(graph.num_nodes):
        encoded[vertex] = mechanism.encode_and_recover(
            graph.features[vertex], workload=1, dimension=dimension, rng=rng
        )
    propagation = row_normalize(graph.adjacency(), self_loops=True)
    return _kprop(encoded, propagation, config.kprop_steps)


def encode_labels_lpgnn(
    graph: Graph, split: NodeSplit, config: LPGNNConfig, rng: np.random.Generator
) -> np.ndarray:
    """Randomized-response the training labels (val/test labels stay local)."""
    if graph.labels is None:
        raise ValueError("LPGNN requires labels")
    mechanism = RandomizedResponse(config.label_epsilon, num_categories=graph.num_classes)
    noisy = graph.labels.copy()
    train_indices = np.where(split.train_mask)[0]
    noisy[train_indices] = mechanism.randomize(graph.labels[train_indices], rng=rng)
    return noisy


def train_lpgnn_supervised(
    graph: Graph,
    split: NodeSplit,
    backbone: str = "gcn",
    epochs: int = 300,
    learning_rate: float = 0.01,
    config: LPGNNConfig = LPGNNConfig(),
    hidden_dim: int = 16,
    output_dim: int = 16,
    dropout: float = 0.01,
    num_heads: int = 4,
    seed: int = 0,
) -> CentralizedResult:
    """Train the LPGNN baseline and report test accuracy against true labels."""
    if graph.labels is None:
        raise ValueError("supervised training requires labels")
    rng = np.random.default_rng(seed)
    denoised_features = encode_features_lpgnn(graph, config, rng)
    noisy_labels = encode_labels_lpgnn(graph, split, config, rng)
    # LPGNN's server knows the true structure.
    return fit_node_classifier(
        graph, denoised_features, noisy_labels, graph.labels, split,
        encoder_config(backbone, hidden_dim, output_dim, dropout, num_heads),
        learning_rate, epochs, rng,
    )
