"""GNN encoders and task heads used by Lumos and all baselines.

The paper's configuration: 2 message-passing layers, hidden and output
dimension 16, ReLU + dropout(0.01) between layers, GAT with 4 attention
heads; decoders are a linear layer + softmax for node classification
(Eq. 32) and an inner-product + sigmoid for link prediction (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional

import numpy as np
import scipy.sparse as sp

from ..graph.sparse import symmetric_normalize
from ..nn.backend import PreparedEdges, PreparedMatrix
from ..nn.layers import Dropout, Linear
from ..nn.module import Module
from ..nn.tensor import Tensor
from .gat import GATLayer
from .gcn import GCNLayer

BackboneName = Literal["gcn", "gat"]


@dataclass(frozen=True)
class EncoderConfig:
    """Hyper-parameters of a GNN encoder (defaults follow the paper)."""

    backbone: str = "gcn"
    num_layers: int = 2
    hidden_dim: int = 16
    output_dim: int = 16
    dropout: float = 0.01
    num_heads: int = 4

    def __post_init__(self) -> None:
        if self.backbone not in ("gcn", "gat"):
            raise ValueError(f"unknown backbone '{self.backbone}'")
        if self.num_layers < 1:
            raise ValueError("encoder needs at least one layer")


class GraphInput:
    """Bundle of the constant graph structure consumed by an encoder.

    ``adjacency`` is the GCN propagation matrix; ``edge_index`` (with self
    loops) drives the GAT layers.  Both describe the *same* graph.  What an
    encoder reads — :attr:`propagation` and :attr:`edge_plan` — is prepared
    on first read and kept for the life of this object.
    """

    def __init__(self, adjacency: sp.spmatrix, edge_index: np.ndarray) -> None:
        self.adjacency = adjacency.tocsr()
        self.edge_index = np.asarray(edge_index, dtype=np.int64)
        if self.edge_index.ndim != 2 or self.edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        self._propagation: Optional[PreparedMatrix] = None
        self._edge_plan: Optional[PreparedEdges] = None

    @property
    def propagation(self) -> PreparedMatrix:
        """``adjacency``, prepared for the GCN layers."""
        if self._propagation is None:
            self._propagation = PreparedMatrix(self.adjacency)
        return self._propagation

    @property
    def edge_plan(self) -> PreparedEdges:
        """``edge_index``, prepared for the GAT layers."""
        if self._edge_plan is None:
            self._edge_plan = PreparedEdges(self.edge_index, self.adjacency.shape[0])
        return self._edge_plan

    @classmethod
    def from_graph(cls, graph) -> "GraphInput":
        """Build the propagation structures from a :class:`repro.graph.Graph`."""
        adjacency = symmetric_normalize(graph.adjacency(), self_loops=True)
        edge_index = graph.directed_edge_index(add_self_loops=True)
        return cls(adjacency, edge_index)


class GNNEncoder(Module):
    """Stack of GCN or GAT layers producing node embeddings (paper Eq. 1-2)."""

    def __init__(
        self,
        in_features: int,
        config: EncoderConfig = EncoderConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.in_features = in_features
        rng = rng if rng is not None else np.random.default_rng()

        dims: List[int] = [in_features]
        dims += [config.hidden_dim] * (config.num_layers - 1)
        dims += [config.output_dim]

        self._layer_names: List[str] = []
        for index in range(config.num_layers):
            is_last = index == config.num_layers - 1
            if config.backbone == "gcn":
                layer: Module = GCNLayer(dims[index], dims[index + 1], rng=rng)
            else:
                if is_last:
                    layer = GATLayer(
                        dims[index], dims[index + 1], num_heads=config.num_heads,
                        concat_heads=False, rng=rng,
                    )
                else:
                    # Hidden GAT layers concatenate heads; keep the overall
                    # hidden width equal to hidden_dim by splitting it.
                    per_head = max(1, dims[index + 1] // config.num_heads)
                    layer = GATLayer(
                        dims[index], per_head, num_heads=config.num_heads,
                        concat_heads=True, rng=rng,
                    )
                    dims[index + 1] = per_head * config.num_heads
            name = f"layer_{index}"
            self.add_module(name, layer)
            self._layer_names.append(name)
        # ``Dropout`` works in place: a hidden layer's training-mode output is
        # that pass's own array (the first-layer memos hand theirs over at
        # most once), read by nothing after dropout, and no layer's adjoint
        # reads its output.
        self.dropout = Dropout(config.dropout, rng=rng)
        self.output_dim = dims[-1]

    def _apply_layer(
        self, layer: Module, hidden: Tensor, graph_input: GraphInput, activation=None
    ) -> Tensor:
        if isinstance(layer, GCNLayer):
            return layer(hidden, graph_input.propagation, activation=activation)
        return layer(hidden, graph_input.edge_plan, activation=activation)

    @property
    def final_layer(self) -> Module:
        """The last message-passing layer (foldable with pooling for GCN)."""
        return self._modules[self._layer_names[-1]]

    def forward_hidden(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Run every layer but the last (relu + dropout after each).

        The Lumos model uses this to take over the final layer itself when it
        can fold that layer's propagation with the mean-pool operator.
        """
        hidden = features
        for name in self._layer_names[:-1]:
            hidden = self._apply_layer(
                self._modules[name], hidden, graph_input, activation="relu"
            )
            hidden = self.dropout(hidden)
        return hidden

    def forward(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Encode all nodes of the graph described by ``graph_input``."""
        hidden = self.forward_hidden(features, graph_input)
        return self._apply_layer(self.final_layer, hidden, graph_input)


class NodeClassifier(Module):
    """Encoder + linear READ-out for supervised node classification (Eq. 32)."""

    def __init__(
        self,
        in_features: int,
        num_classes: int,
        config: EncoderConfig = EncoderConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.encoder = GNNEncoder(in_features, config, rng=rng)
        self.head = Linear(self.encoder.output_dim, num_classes, rng=rng)

    def forward(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Return class logits for every node."""
        return self.head(self.encoder(features, graph_input))


class LinkPredictor(Module):
    """Encoder for link prediction; :mod:`repro.gnn.link_prediction` scores its
    embeddings with the inner-product decoder (Eq. 4)."""

    def __init__(
        self,
        in_features: int,
        config: EncoderConfig = EncoderConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.encoder = GNNEncoder(in_features, config, rng=rng)

    def forward(self, features: Tensor, graph_input: GraphInput) -> Tensor:
        """Return node embeddings."""
        return self.encoder(features, graph_input)
