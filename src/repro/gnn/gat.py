"""Graph Attention Network layer (Velickovic et al., ICLR 2018).

Multi-head additive attention computed edge-wise: for a directed edge
``j -> i`` the unnormalised score is

    e_ij = LeakyReLU(a_src . (W h_j) + a_dst . (W h_i))

normalised with a softmax over the incoming edges of ``i``.  Heads are
concatenated on hidden layers and averaged on output layers, matching the
reference implementation.  The paper's Lumos configuration uses 4 heads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn import init
from ..nn.backend import get_backend
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor


class GATLayer(Module):
    """One multi-head graph attention layer operating on an edge index."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_heads: int = 4,
        concat_heads: bool = True,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("GATLayer dimensions must be positive")
        if num_heads <= 0:
            raise ValueError("num_heads must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.num_heads = num_heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        # One weight matrix per head packed into a single (in, heads*out) matrix.
        self.weight = Parameter(
            init.xavier_uniform((in_features, num_heads * out_features), rng=rng), name="weight"
        )
        self.attention_src = Parameter(
            init.xavier_uniform((num_heads, out_features), rng=rng), name="attention_src"
        )
        self.attention_dst = Parameter(
            init.xavier_uniform((num_heads, out_features), rng=rng), name="attention_dst"
        )
        self.bias = Parameter(
            init.zeros((num_heads * out_features if concat_heads else out_features,)), name="bias"
        )

    @property
    def output_dim(self) -> int:
        """Dimensionality of the produced node embeddings."""
        return self.num_heads * self.out_features if self.concat_heads else self.out_features

    def forward(
        self,
        features: Tensor,
        edge_index: np.ndarray,
        activation: Optional[str] = None,
    ) -> Tensor:
        """Apply attention over ``edge_index`` (shape ``(2, E)``, src -> dst).

        ``edge_index`` should include self loops; :func:`repro.gnn.models.
        build_edge_index` adds them.  ``activation`` (``"relu"``) is folded
        into the fused layer node when the backend allows fusion, and applied
        as a separate tensor op on the composite path.
        """
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        num_nodes = features.shape[0]
        backend = get_backend()

        if backend.allow_fused:
            # Whole layer as a single autograd node: transform, attention
            # logits, leaky-relu + segment softmax, weighted aggregation,
            # head concat/mean, bias and activation with closed-form
            # adjoints (parity pinned by tests/test_nn_backend.py), on the
            # edge plan the backend keeps per edge index.
            return F.fused_gat_layer(
                features,
                backend.prepare_edges(edge_index, num_nodes),
                self.weight,
                self.attention_src,
                self.attention_dst,
                self.bias,
                self.num_heads,
                self.out_features,
                self.concat_heads,
                self.negative_slope,
                activation=activation,
            )

        src, dst = edge_index
        transformed = features @ self.weight  # (N, H*F)
        transformed = transformed.reshape(num_nodes, self.num_heads, self.out_features)

        # Per-node attention logits: (N, H)
        src_scores = (transformed * self.attention_src.reshape(1, self.num_heads, self.out_features)).sum(axis=-1)
        dst_scores = (transformed * self.attention_dst.reshape(1, self.num_heads, self.out_features)).sum(axis=-1)

        # Per-edge logits and softmax over incoming edges of each destination.
        edge_logits = F.gather(src_scores, src) + F.gather(dst_scores, dst)
        edge_logits = edge_logits.leaky_relu(self.negative_slope)
        attention = F.segment_softmax(edge_logits, dst, num_nodes)  # (E, H)

        # Weighted aggregation of source embeddings into destinations.
        messages = F.gather(transformed, src)  # (E, H, F)
        weighted = messages * attention.reshape(-1, self.num_heads, 1)
        aggregated = F.scatter_add(weighted, dst, num_nodes)  # (N, H, F)

        if self.concat_heads:
            out = aggregated.reshape(num_nodes, self.num_heads * self.out_features)
        else:
            out = aggregated.mean(axis=1)
        out = out + self.bias
        if activation == "relu":
            out = out.relu()
        return out

    def __repr__(self) -> str:
        return (
            f"GATLayer(in={self.in_features}, out={self.out_features}, "
            f"heads={self.num_heads}, concat={self.concat_heads})"
        )
