"""Functional building blocks for graph neural networks.

These functions complement :class:`repro.nn.tensor.Tensor` with the graph-
specific primitives GCN and GAT need: multiplication by a *constant* sparse
matrix (the normalised adjacency or the mean-pool operator), row gathering,
the fused single-node GCN / GAT / pooling / loss kernels, dropout and the
affine map.  Their composite (op-for-op) forms, with the scatter-add and
log-softmax those use, are the oracles in ``tests/helpers/``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .backend import PreparedEdges, PreparedMatrix, get_backend
from .shared_rows import SharedRowFeatures
from .tensor import Tensor, _as_array


def relu_(value: np.ndarray) -> np.ndarray:
    """Rectify ``value`` in place; returns the ``bool`` mask its adjoint
    multiplies by (``max(x, 0) > 0`` exactly when ``x > 0``)."""
    np.maximum(value, 0.0, out=value)
    return value > 0


def sparse_matmul(matrix: Union[sp.spmatrix, PreparedMatrix], tensor: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``matrix @ tensor``.

    The sparse matrix is treated as a constant (no gradient is computed for
    it); the gradient w.r.t. ``tensor`` is ``matrix.T @ grad``.  This is the
    workhorse of GCN message passing where ``matrix`` is the symmetrically
    normalised adjacency.  The kernels (including the transposed product of
    the backward pass) are supplied by :mod:`repro.nn.backend`.
    """
    if not (sp.issparse(matrix) or isinstance(matrix, PreparedMatrix)):
        raise TypeError("sparse_matmul expects a scipy sparse matrix")
    backend = get_backend()
    prepared = backend.prepare_matrix(matrix)
    out_data = backend.spmm(prepared, tensor.data)

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(backend.spmm_t(prepared, _as_array(grad)), donated=True)

    return Tensor._make(out_data, (tensor,), backward)


def gather(tensor: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``tensor[index]`` with duplicate-aware gradients."""
    backend = get_backend()
    index = np.asarray(index, dtype=np.int64)
    out_data = backend.take_rows(tensor.data, index)
    num_rows = tensor.data.shape[0]

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(backend.scatter_rows(_as_array(grad), index, num_rows), donated=True)

    return Tensor._make(out_data, (tensor,), backward)


def fused_gcn_layer(
    features: Tensor,
    matrix: Union[sp.spmatrix, PreparedMatrix],
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: Optional[str] = None,
    bias_operator: Optional[np.ndarray] = None,
) -> Tensor:
    """One fused autograd node for a full GCN layer.

    Computes ``act(M @ (X W) + b)`` — spmm, affine and activation in a single
    node with closed-form adjoints, instead of the four-node composite
    (matmul, sparse matmul, bias add, relu).  ``M`` may be the plain
    propagation matrix or a folded chain (:meth:`FastNumpyBackend.fold_chain`), e.g.
    ``pool @ adjacency`` for the last layer of the Lumos model; when the fold
    absorbs a row-scaling prefix, ``bias_operator`` carries that prefix's row
    sums ``s`` so the bias enters as ``s ⊗ b`` (``M (X W + 1 bᵀ) = M X W +
    (M 1) ⊗ b``).

    Adjoints (``g`` is the incoming gradient, masked by ``act'``):

    * ``db = Σ_rows g`` (or ``Σ_rows (s ⊙ g)`` under a folded bias),
    * ``g_s = Mᵀ g``,
    * ``dW = Xᵀ g_s``,
    * ``dX = g_s Wᵀ``.
    """
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported fused activation '{activation}'")
    backend = get_backend()
    prepared = backend.prepare_matrix(matrix)
    support = features.data @ weight.data
    out = backend.spmm(prepared, support)
    if bias is not None:
        if bias_operator is None:
            out = out + bias.data
        else:
            out = out + np.multiply.outer(bias_operator, bias.data)
    mask = relu_(out) if activation == "relu" else None

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad)
        if mask is not None:
            np.multiply(grad, mask, out=grad)
        if bias is not None:
            if bias_operator is None:
                bias._accumulate(grad)
            else:
                bias._accumulate((grad * bias_operator[:, None]).sum(axis=0), donated=True)
        grad_support = backend.spmm_t(prepared, grad)
        weight._accumulate(features.data.T @ grad_support, donated=True)
        if features.requires_grad:
            features._accumulate(grad_support @ weight.data.T, donated=True)

    parents = (features, weight) if bias is None else (features, weight, bias)
    return Tensor._make(out, parents, backward)


def fused_gat_layer(
    features: Union[Tensor, SharedRowFeatures],
    edges: PreparedEdges,
    weight: Tensor,
    attention_src: Tensor,
    attention_dst: Tensor,
    bias: Tensor,
    num_heads: int,
    head_dim: int,
    concat_heads: bool,
    negative_slope: float = 0.2,
    activation: Optional[str] = None,
) -> Tensor:
    """One fused autograd node for a full multi-head GAT layer.

    Runs the entire layer — linear transform, per-node attention logits,
    leaky-relu + segment softmax over incoming edges, weighted aggregation,
    head concat/mean, bias, optional activation — as a single node computing
    what the composite graph computes (parity with that graph, the oracle in
    ``tests/helpers/oracles.py``, is pinned by ``tests/test_gat_fused_parity.py``).

    ``features`` may be the constant first-layer input kept factored
    (:class:`~repro.nn.shared_rows.SharedRowFeatures`): the transform and its
    weight adjoint then run on the distinct rows.  ``edges`` is the
    :class:`~repro.nn.backend.PreparedEdges` plan of the edge
    index (``backend.prepare_edges``).  Per-edge state is ``(H, E)`` only: the
    aggregation is one CSR product ``A_h @ T_h`` per head, with the plan as
    structure and that head's attention as data, so no edge-by-feature array
    exists in forward (memory ``O(E H + N H F)``).  Backward is ``A_hᵀ @ G_h``
    for the message adjoint and one sampled dot product per head
    (``(E, F)`` at a time) for the attention adjoint.
    """
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported fused activation '{activation}'")
    num_nodes = features.shape[0]
    if edges.num_nodes != num_nodes:
        raise ValueError("edge plan was prepared for a different number of nodes")
    heads = range(num_heads)
    backend = get_backend()
    shared = isinstance(features, SharedRowFeatures)
    if shared:
        support = backend.spmm(features.gather, features.project(weight.data))
    else:
        support = features.data @ weight.data
    # Head-major (H, N, F): each head's block is the contiguous dense operand
    # of its sparse product.
    transformed = np.ascontiguousarray(
        support.reshape(num_nodes, num_heads, head_dim).transpose(1, 0, 2)
    )
    # Source and destination attention vectors side by side, (H, 2, F), so
    # both per-node scores (and later both their adjoints) are one batched gemm.
    vectors = np.stack([attention_src.data, attention_dst.data], axis=1)
    scores = vectors @ transformed.transpose(0, 2, 1)  # (H, 2, N)

    logits = np.take(scores[:, 0], edges.src, axis=1) + np.repeat(
        scores[:, 1], edges.counts, axis=1
    )  # (H, E)
    # Exactly 1.0 / negative_slope like np.where, without its per-element branch.
    positive = logits > 0
    slope = positive + ~positive * negative_slope
    attention = edges.softmax(logits * slope)
    matrices = [edges.attention_matrix(attention[h]) for h in heads]
    aggregated = [matrices[h] @ transformed[h] for h in heads]  # H x (N, F)
    if concat_heads:
        out = np.concatenate(aggregated, axis=1)
    else:
        out = sum(aggregated[1:], aggregated[0]) * (1.0 / num_heads)
    out = out + bias.data
    mask = relu_(out) if activation == "relu" else None

    def backward(grad: np.ndarray) -> None:
        g = _as_array(grad)
        if mask is not None:
            np.multiply(g, mask, out=g)
        bias._accumulate(g)
        if concat_heads:
            g_heads = np.split(g, num_heads, axis=1)
        else:
            g_heads = [g * (1.0 / num_heads)] * num_heads
        g_transformed = np.empty_like(transformed)
        g_attention = np.empty_like(attention)
        g_edges = None
        for h in heads:
            g_transformed[h] = matrices[h].T @ g_heads[h]
            if concat_heads or g_edges is None:  # mean heads share one gradient
                g_edges = np.repeat(g_heads[h], edges.counts, axis=0)  # (E, F)
            np.einsum(
                "ef,ef->e", g_edges, np.take(transformed[h], edges.src, axis=0),
                out=g_attention[h],
            )
        g_logits = edges.softmax_backward(attention, g_attention) * slope
        g_scores = np.empty_like(scores)
        for h in heads:
            g_scores[h, 0] = np.bincount(edges.src, weights=g_logits[h], minlength=num_nodes)
        g_scores[:, 1] = edges.segment_sum(g_logits)
        g_transformed += g_scores.transpose(0, 2, 1) @ vectors
        g_vectors = g_scores @ transformed  # (H, 2, F)
        attention_src._accumulate(g_vectors[:, 0])
        attention_dst._accumulate(g_vectors[:, 1])
        flat = g_transformed.transpose(1, 0, 2).reshape(num_nodes, num_heads * head_dim)
        if shared:
            weight._accumulate(
                features.project_adjoint(backend.spmm_t(features.gather, flat)), donated=True
            )
        else:
            weight._accumulate(features.data.T @ flat, donated=True)
        if features.requires_grad:
            features._accumulate(flat @ weight.data.T, donated=True)

    parents = (weight, attention_src, attention_dst, bias)
    if features.requires_grad:
        parents = (features,) + parents
    return Tensor._make(out, parents, backward)


def fused_pool_head(
    node_embeddings: Tensor,
    matrix: Union[sp.spmatrix, PreparedMatrix],
    weight: Tensor,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """Fused mean-pool + linear head: ``(P @ E) W + b`` as one autograd node.

    ``P`` is the constant mean-pool matrix; the adjoints are ``db = Σ_rows g``,
    ``dW = (P E)ᵀ g`` and ``dE = Pᵀ (g Wᵀ)``.
    """
    backend = get_backend()
    prepared = backend.prepare_matrix(matrix)
    pooled = backend.spmm(prepared, node_embeddings.data)
    out = pooled @ weight.data
    if bias is not None:
        out = out + bias.data

    def backward(grad: np.ndarray) -> None:
        g = _as_array(grad)
        if bias is not None:
            bias._accumulate(g)
        weight._accumulate(pooled.T @ g, donated=True)
        if node_embeddings.requires_grad:
            node_embeddings._accumulate(
                backend.spmm_t(prepared, g @ weight.data.T), donated=True
            )

    parents = (node_embeddings, weight) if bias is None else (node_embeddings, weight, bias)
    return Tensor._make(out, parents, backward)


def fused_folded_head(
    hidden: Tensor,
    matrix: Union[sp.spmatrix, PreparedMatrix],
    layer_weight: Tensor,
    layer_bias: Tensor,
    head_weight: Tensor,
    head_bias: Tensor,
    bias_operator: np.ndarray,
) -> Tensor:
    """Final folded GCN layer and classifier head as one autograd node.

    Computes ``(M (H W_f) + s ⊗ b_f) W_h + b_h`` — with ``M`` the folded
    ``pool @ adjacency`` operator and ``s`` its row sums — reassociated as

        ``M (H (W_f W_h)) + s ⊗ (b_f W_h) + b_h``.

    Both weight products collapse into one tiny ``(d, C)`` matrix, so the
    wide gemm, the sparse product and every intermediate run at
    ``num_classes`` columns instead of ``hidden_dim``.  Like propagation
    folding this reassociates float ops (the benchmark gates it on exact
    final metrics and rtol-level losses against the composite oracle).

    Adjoints (``g`` the incoming gradient, ``S = Mᵀ g``, ``T = Hᵀ S``,
    ``r = sᵀ g``):

    * ``db_h = Σ_rows g``,
    * ``dW_h = W_fᵀ T + b_f ⊗ r``,
    * ``dW_f = T W_hᵀ``,  ``db_f = r W_hᵀ``,
    * ``dH = S (W_f W_h)ᵀ``.
    """
    backend = get_backend()
    prepared = backend.prepare_matrix(matrix)
    combined = layer_weight.data @ head_weight.data
    support = hidden.data @ combined
    pooled = backend.spmm(prepared, support)
    combined_bias = layer_bias.data @ head_weight.data
    out = pooled + np.multiply.outer(bias_operator, combined_bias) + head_bias.data

    def backward(grad: np.ndarray) -> None:
        g = _as_array(grad)
        head_bias._accumulate(g)
        row_grad = bias_operator @ g
        scattered = backend.spmm_t(prepared, g)
        projected = hidden.data.T @ scattered
        head_weight._accumulate(
            layer_weight.data.T @ projected
            + np.multiply.outer(layer_bias.data, row_grad),
            donated=True,
        )
        layer_weight._accumulate(projected @ head_weight.data.T, donated=True)
        layer_bias._accumulate(row_grad @ head_weight.data.T, donated=True)
        if hidden.requires_grad:
            hidden._accumulate(scattered @ combined.T, donated=True)

    parents = (hidden, layer_weight, layer_bias, head_weight, head_bias)
    return Tensor._make(out, parents, backward)


def fused_masked_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    weights: np.ndarray,
    total: float,
) -> Tensor:
    """Masked mean cross-entropy as a single autograd node.

    Computes ``-(sum_i weights[i] * log_softmax(logits)[i, targets[i]]) /
    total``.  The forward replicates the composite ``log_softmax ->
    gather -> masked mean`` chain float operation for float operation (same
    max-shift, same reduction order), so the loss value is bit-identical to
    the un-fused expression.  The backward uses the closed-form adjoint
    ``(softmax - onehot) * weights / total`` instead of unwinding the five
    intermediate nodes.

    ``logits`` is ``(N, C)``; the loss is a scalar.
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    data = logits.data
    if data.ndim != 2:
        raise ValueError("fused_masked_cross_entropy expects 2-D logits")
    shifted = data - data.max(axis=-1, keepdims=True)
    exp_values = np.exp(shifted)
    denominator = exp_values.sum(axis=-1, keepdims=True)
    log_probabilities = shifted - np.log(denominator)
    rows = np.arange(data.shape[0])
    picked = log_probabilities[rows, targets]
    value = -(picked * weights).sum(axis=-1) / total
    coefficients = weights / total

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad)
        delta = exp_values / denominator
        delta[rows, targets] -= 1.0
        scale = coefficients * grad
        logits._accumulate(delta * scale[:, None], donated=True)

    return Tensor._make(value, (logits,), backward)


def dropout(
    tensor: Tensor,
    probability: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero entries with ``probability`` and rescale.

    A no-op when ``training`` is false or ``probability`` is zero.
    """
    if not training or probability <= 0.0:
        return tensor
    if not 0.0 <= probability < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {probability}")
    rng = rng if rng is not None else np.random.default_rng()
    keep_probability = 1.0 - probability
    # One uniform per entry; the mask stays ``bool``.  Scaling and then
    # multiplying by the mask in place gives, entry for entry, the bits of
    # ``x * ((u < keep) / keep)`` (kept: ``x / keep * 1``; dropped: a zero of
    # ``x``'s sign) without the float64 mask array — forward and adjoint.
    mask = rng.random(tensor.data.shape) < keep_probability
    scale = 1.0 / keep_probability
    out = tensor.data * scale
    np.multiply(out, mask, out=out)

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad)
        grad *= scale
        np.multiply(grad, mask, out=grad)
        tensor._accumulate(grad, donated=True)

    return Tensor._make(out, (tensor,), backward)


def linear(tensor: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``tensor @ weight + bias``."""
    out = tensor @ weight
    if bias is not None:
        out = out + bias
    return out
