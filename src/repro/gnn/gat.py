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
from ..nn.backend import PreparedEdges
from ..nn.module import Module, Parameter
from ..nn.shared_rows import SharedRowFeatures
from ..nn.tensor import Tensor, enable_grad, is_grad_enabled


class GATLayer(Module):
    """One multi-head graph attention layer operating on a prepared edge plan."""

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
        # ``(key, output)`` of the last evaluation pass on a factored input,
        # kept for the next gradient pass (see forward).
        self._memo = None

    def forward(
        self,
        features: Tensor,
        edges: PreparedEdges,
        activation: Optional[str] = None,
    ) -> Tensor:
        """Apply attention over the edges of ``edges`` (src -> dst).

        ``edges`` is the :class:`~repro.nn.backend.PreparedEdges` plan of a
        ``(2, E)`` edge index, which should include self loops
        (``Graph.directed_edge_index(add_self_loops=True)`` adds them); a raw
        edge index is a ``TypeError``.  ``activation`` (``"relu"``) is folded
        into the layer node.
        """
        if not isinstance(edges, PreparedEdges):
            raise TypeError("GATLayer expects a PreparedEdges plan")
        if not isinstance(features, SharedRowFeatures):
            return self._attend(features, edges, activation)
        # Schedule memo for the constant first-layer input: the trainer's
        # evaluation pass at epoch t sees the same input, edge plan and
        # parameter arrays as its gradient pass at t + 1 (optimizer steps
        # rebind ``Parameter.data``), so the evaluation pass records the node
        # and the gradient pass takes it over instead of recomputing it.
        # Keyed on identity with strong references; used at most once.
        key = (
            features, edges, self.weight.data, self.attention_src.data,
            self.attention_dst.data, self.bias.data, activation,
        )
        memo, self._memo = self._memo, None
        if is_grad_enabled():
            if memo is not None and all(a is b for a, b in zip(memo[0], key)):
                return memo[1]
            return self._attend(features, edges, activation)
        if self.training:
            # A training-mode output is dropped in place: never memoised.
            return self._attend(features, edges, activation)
        with enable_grad():
            out = self._attend(features, edges, activation)
        self._memo = (key, out)
        return out.detach()

    def drop_memos(self) -> None:
        self._memo = None

    def _attend(self, features, edges: PreparedEdges, activation: Optional[str]) -> Tensor:
        """The layer itself."""
        # Whole layer as a single autograd node: transform, attention logits,
        # leaky-relu + segment softmax, weighted aggregation, head
        # concat/mean, bias and activation with closed-form adjoints (parity
        # with the composite graph pinned by tests/test_gat_fused_parity.py).
        return F.fused_gat_layer(
            features,
            edges,
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
