"""Graph Convolutional Network layer (Kipf & Welling, ICLR 2017).

The layer computes ``H' = Â H W + b`` with ``Â = D^-1/2 (A + I) D^-1/2``.
The normalised adjacency is supplied by the caller as a constant scipy sparse
matrix so that the same layer works on the global graph (centralized
baseline), on the per-device trees of Lumos, and on the block-diagonal union
of all trees used for efficient simulation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..nn import functional as F
from ..nn import init
from ..nn.backend import get_backend
from ..nn.module import Module, Parameter
from ..nn.shared_rows import SharedRowFeatures
from ..nn.tensor import Tensor, _as_array


class GCNLayer(Module):
    """One graph convolution: ``propagate(adjacency, X) @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("GCNLayer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng=rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None
        # Memos of the last constant-input propagation (see _propagate_constant).
        self._propagated_input_cache = None
        self._forward_cache = None

    def forward(
        self,
        features: Tensor,
        adjacency: sp.spmatrix,
        activation: Optional[str] = None,
    ) -> Tensor:
        """Apply the convolution.

        Parameters
        ----------
        features:
            Node feature tensor of shape ``(N, in_features)`` — or, for the
            first layer under a fused backend, the same constant input kept
            factored (:class:`~repro.nn.shared_rows.SharedRowFeatures`).
        adjacency:
            Pre-normalised propagation matrix of shape ``(N, N)``.
        activation:
            Optional activation (``"relu"``) folded into the layer.  On the
            fused paths it executes inside the single layer node; on the
            composite path it is applied as a separate tensor op — same
            mathematics either way.
        """
        if adjacency.shape[0] != features.shape[0]:
            raise ValueError(
                f"adjacency has {adjacency.shape[0]} rows but features have "
                f"{features.shape[0]} rows"
            )
        backend = get_backend()
        if backend.allow_fused:
            if not features.requires_grad:
                return self._propagate_constant(features, adjacency, backend, activation)
            # Whole layer (spmm -> affine -> activation) as one autograd node.
            return F.fused_gcn_layer(
                features, adjacency, self.weight, self.bias, activation=activation
            )
        support = features @ self.weight
        out = F.sparse_matmul(adjacency, support)
        if self.bias is not None:
            out = out + self.bias
        if activation == "relu":
            out = out.relu()
        return out

    def _propagate_constant(
        self, features, adjacency, backend, activation: Optional[str] = None
    ) -> Tensor:
        """``(adjacency @ features) @ W + b`` for a constant ``features`` input.

        Two reuse opportunities apply when the input does not require
        gradients (the first GNN layer, and every layer in evaluation mode):

        * associativity — ``Â (X W) = (Â X) W``, and ``Â X`` is constant
          across epochs for the input layer, so it is propagated once and
          every subsequent forward is a single dense matmul; for a factored
          input ``X = G R`` (:class:`SharedRowFeatures`) the constant is the
          folded operator ``Â G`` instead, and a forward is the projection
          ``R W`` of the distinct rows plus one sparse product
          ``(Â G)(R W)``;
        * schedule — the trainer runs one gradient forward and one evaluation
          forward per epoch, and the evaluation pass at epoch ``t`` sees the
          same input/weight/bias arrays as the gradient pass at epoch
          ``t + 1`` (optimizer steps rebind ``Parameter.data``), so the layer
          output itself is reused across the pair.

        Both memos key on object identity with strong references.  The
        backward pass uses the folded adjoint ``W.grad = (Â X)^T grad``.  An
        optional ``activation`` is folded into the memoised value (and its
        mask into the adjoint), so the whole layer stays one autograd node.
        """
        prepared = backend.prepare_matrix(adjacency)
        shared = features if isinstance(features, SharedRowFeatures) else None
        constant = features if shared is not None else features.data
        cached_input = self._propagated_input_cache
        if (
            cached_input is None
            or cached_input[0] is not prepared
            or cached_input[1] is not constant
        ):
            if shared is not None:
                propagated = backend.fold_chain([prepared, shared.gather])
            else:
                propagated = backend.spmm(prepared, constant)
            cached_input = (prepared, constant, propagated)
            self._propagated_input_cache = cached_input
        propagated = cached_input[2]

        bias_data = self.bias.data if self.bias is not None else None
        entry = self._forward_cache
        if (
            entry is None
            or entry[0] is not cached_input
            or entry[1] is not self.weight.data
            or entry[2] is not bias_data
            or entry[3] != activation
        ):
            if shared is not None:
                value = backend.spmm(propagated, shared.project(self.weight.data))
            else:
                value = propagated @ self.weight.data
            if bias_data is not None:
                value += bias_data
            mask = F.relu_(value) if activation == "relu" else None
            entry = (cached_input, self.weight.data, bias_data, activation, value, mask)
            self._forward_cache = entry
        value, mask = entry[4], entry[5]
        weight, bias = self.weight, self.bias

        def backward(grad: np.ndarray) -> None:
            grad = _as_array(grad)
            if mask is not None:
                grad = grad * mask
            if shared is not None:
                weight._accumulate(
                    shared.project_adjoint(backend.spmm_t(propagated, grad)), donated=True
                )
            else:
                weight._accumulate(propagated.T @ grad, donated=True)
            if bias is not None:
                bias._accumulate(grad)

        parents = (weight,) if bias is None else (weight, bias)
        return Tensor._make(value, parents, backward)

    def __repr__(self) -> str:
        return f"GCNLayer(in={self.in_features}, out={self.out_features})"
