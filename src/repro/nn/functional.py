"""Functional building blocks for graph neural networks.

These functions complement :class:`repro.nn.tensor.Tensor` with the graph-
specific primitives GCN and GAT need: multiplication by a *constant* sparse
matrix (the normalised adjacency), row gathering / scatter-add for edge-wise
computation, segment softmax for attention coefficients and the usual
classification heads (softmax / log-softmax) plus dropout.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .backend import PreparedMatrix, get_backend
from .tensor import Tensor, _as_array


def sparse_matmul(matrix: Union[sp.spmatrix, PreparedMatrix], tensor: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``matrix @ tensor``.

    The sparse matrix is treated as a constant (no gradient is computed for
    it); the gradient w.r.t. ``tensor`` is ``matrix.T @ grad``.  This is the
    workhorse of GCN message passing where ``matrix`` is the symmetrically
    normalised adjacency.  The kernels (including the transposed product of
    the backward pass) are supplied by the active :mod:`repro.nn.backend`.
    """
    if not (sp.issparse(matrix) or isinstance(matrix, PreparedMatrix)):
        raise TypeError("sparse_matmul expects a scipy sparse matrix")
    backend = get_backend()
    prepared = backend.prepare_matrix(matrix)
    out_data = backend.spmm(prepared, tensor.data)

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(backend.spmm_t(prepared, _as_array(grad)))

    return Tensor._make(out_data, (tensor,), backward)


def gather(tensor: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``tensor[index]`` with duplicate-aware gradients."""
    backend = get_backend()
    index = np.asarray(index, dtype=np.int64)
    out_data = backend.take_rows(tensor.data, index)
    num_rows = tensor.data.shape[0]

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(backend.scatter_rows(_as_array(grad), index, num_rows))

    return Tensor._make(out_data, (tensor,), backward)


def scatter_add(tensor: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``tensor`` into ``num_segments`` buckets given by ``index``.

    ``out[k] = sum_{i : index[i] == k} tensor[i]``.  The gradient of a bucket
    flows back equally (as a copy) to every row that contributed to it.
    """
    backend = get_backend()
    index = np.asarray(index, dtype=np.int64)
    out_data = backend.segment_sum(tensor.data, index, num_segments)

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(backend.take_rows(_as_array(grad), index))

    return Tensor._make(out_data, (tensor,), backward)


def segment_softmax(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of ``values`` normalised within each segment.

    Used by GAT to normalise attention logits over the incoming edges of each
    destination node.  ``values`` may be of shape ``(E,)`` or ``(E, H)`` for
    multi-head attention; segments are defined along the first axis.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # Subtract the per-segment max for numerical stability.  The max is a
    # constant shift within each segment: its gradient contribution cancels
    # exactly in the softmax, so treating it as a constant is correct.
    seg_max = get_backend().segment_max(values.data, segment_ids, num_segments)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)

    shifted = values - Tensor(seg_max[segment_ids])
    exp_values = shifted.exp()
    denom = scatter_add(exp_values, segment_ids, num_segments)
    denom_per_edge = gather(denom, segment_ids)
    return exp_values / (denom_per_edge + 1e-16)


def edge_attention_softmax(
    src_scores: Tensor,
    dst_scores: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    num_segments: int,
    negative_slope: float = 0.2,
) -> Tensor:
    """Fused GAT attention kernel: gather + add + leaky-relu + segment softmax.

    Computes ``segment_softmax(leaky_relu(src_scores[src] + dst_scores[dst]))``
    normalised over the incoming edges of each destination — the attention
    coefficients of a GAT layer — as **one** autograd node instead of the
    seven-node composite (two gathers, add, leaky-relu, exp, scatter, divide).
    All array work runs through the active backend (so the fast backend's
    cached CSR aggregation matrices serve the segment reductions), and the
    backward pass uses the closed-form softmax adjoint

        d/d logits = a * (g - segment_sum(a * g)[dst]) * leaky_relu'(logits)

    which matches the composite graph's gradient exactly (the per-segment max
    shift is constant within a segment and the ``1e-16`` denominator guard is
    segment-constant too, so both cancel from the adjoint).
    """
    backend = get_backend()
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    logits = backend.take_rows(src_scores.data, src) + backend.take_rows(dst_scores.data, dst)
    slope = np.where(logits > 0, 1.0, negative_slope)
    activated = logits * slope
    seg_max = backend.segment_max(activated, dst, num_segments)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    exp_values = np.exp(activated - backend.take_rows(seg_max, dst))
    denominator = backend.segment_sum(exp_values, dst, num_segments) + 1e-16
    attention = exp_values / backend.take_rows(denominator, dst)
    num_src_rows = src_scores.data.shape[0]
    num_dst_rows = dst_scores.data.shape[0]

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad)
        weighted = attention * grad
        segment_dot = backend.segment_sum(weighted, dst, num_segments)
        grad_logits = (weighted - attention * backend.take_rows(segment_dot, dst)) * slope
        src_scores._accumulate(backend.scatter_rows(grad_logits, src, num_src_rows))
        dst_scores._accumulate(backend.scatter_rows(grad_logits, dst, num_dst_rows))

    return Tensor._make(attention, (src_scores, dst_scores), backward)


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
    propagation matrix or a folded chain (:meth:`OpsBackend.fold_chain`), e.g.
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
    mask: Optional[np.ndarray] = None
    if activation == "relu":
        mask = (out > 0).astype(np.float64)
        out = out * mask

    def backward(grad: np.ndarray) -> None:
        grad = _as_array(grad)
        if mask is not None:
            grad = grad * mask
        if bias is not None:
            if bias_operator is None:
                bias._accumulate(grad)
            else:
                bias._accumulate((grad * bias_operator[:, None]).sum(axis=0))
        grad_support = backend.spmm_t(prepared, grad)
        weight._accumulate(features.data.T @ grad_support)
        if features.requires_grad:
            features._accumulate(grad_support @ weight.data.T)

    parents = (features, weight) if bias is None else (features, weight, bias)
    return Tensor._make(out, parents, backward)


def fused_gat_layer(
    features: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
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
    head concat/mean, bias, optional activation — as a single node whose
    forward executes the same float operations as the composite graph (parity
    is pinned by ``tests/test_nn_backend.py``).  The backward pass applies
    the closed-form adjoint of every stage in reverse, reusing the stored
    forward intermediates (``transformed``, ``attention``, ``slope``).
    """
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported fused activation '{activation}'")
    backend = get_backend()
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    num_nodes = features.data.shape[0]
    transformed = (features.data @ weight.data).reshape(num_nodes, num_heads, head_dim)
    src_vec = attention_src.data.reshape(1, num_heads, head_dim)
    dst_vec = attention_dst.data.reshape(1, num_heads, head_dim)
    src_scores = (transformed * src_vec).sum(axis=-1)  # (N, H)
    dst_scores = (transformed * dst_vec).sum(axis=-1)

    logits = backend.take_rows(src_scores, src) + backend.take_rows(dst_scores, dst)
    slope = np.where(logits > 0, 1.0, negative_slope)
    activated = logits * slope
    seg_max = backend.segment_max(activated, dst, num_nodes)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    exp_values = np.exp(activated - backend.take_rows(seg_max, dst))
    denominator = backend.segment_sum(exp_values, dst, num_nodes) + 1e-16
    attention = exp_values / backend.take_rows(denominator, dst)  # (E, H)

    messages = backend.take_rows(transformed, src)  # (E, H, F)
    weighted = messages * attention[:, :, None]
    aggregated = backend.segment_sum(weighted, dst, num_nodes)  # (N, H, F)
    if concat_heads:
        out = aggregated.reshape(num_nodes, num_heads * head_dim)
    else:
        out = aggregated.sum(axis=1) * (1.0 / num_heads)
    out = out + bias.data
    mask: Optional[np.ndarray] = None
    if activation == "relu":
        mask = (out > 0).astype(np.float64)
        out = out * mask

    def backward(grad: np.ndarray) -> None:
        g = _as_array(grad)
        if mask is not None:
            g = g * mask
        bias._accumulate(g)
        if concat_heads:
            g_agg = g.reshape(num_nodes, num_heads, head_dim)
        else:
            g_agg = np.broadcast_to(
                (g * (1.0 / num_heads))[:, None, :], (num_nodes, num_heads, head_dim)
            )
        g_weighted = backend.take_rows(g_agg, dst)  # (E, H, F)
        g_messages = g_weighted * attention[:, :, None]
        g_attention = (g_weighted * messages).sum(axis=-1)  # (E, H)
        # Closed-form segment-softmax adjoint (the max shift and the 1e-16
        # denominator guard are segment-constant, so both cancel).
        weighted_grad = attention * g_attention
        segment_dot = backend.segment_sum(weighted_grad, dst, num_nodes)
        g_logits = (
            weighted_grad - attention * backend.take_rows(segment_dot, dst)
        ) * slope
        g_src_scores = backend.scatter_rows(g_logits, src, num_nodes)  # (N, H)
        g_dst_scores = backend.scatter_rows(g_logits, dst, num_nodes)
        g_transformed = (
            g_src_scores[:, :, None] * src_vec
            + g_dst_scores[:, :, None] * dst_vec
            + backend.scatter_rows(g_messages, src, num_nodes)
        )
        attention_src._accumulate((transformed * g_src_scores[:, :, None]).sum(axis=0))
        attention_dst._accumulate((transformed * g_dst_scores[:, :, None]).sum(axis=0))
        flat = g_transformed.reshape(num_nodes, num_heads * head_dim)
        weight._accumulate(features.data.T @ flat)
        if features.requires_grad:
            features._accumulate(flat @ weight.data.T)

    parents = (features, weight, attention_src, attention_dst, bias)
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
        weight._accumulate(pooled.T @ g)
        if node_embeddings.requires_grad:
            node_embeddings._accumulate(backend.spmm_t(prepared, g @ weight.data.T))

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
    final metrics and rtol-level losses against the reference path).

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
            + np.multiply.outer(layer_bias.data, row_grad)
        )
        layer_weight._accumulate(projected @ head_weight.data.T)
        layer_bias._accumulate(row_grad @ head_weight.data.T)
        if hidden.requires_grad:
            hidden._accumulate(scattered @ combined.T)

    parents = (hidden, layer_weight, layer_bias, head_weight, head_bias)
    return Tensor._make(out, parents, backward)


def gather_rows_columns(tensor: Tensor, column_index: np.ndarray) -> Tensor:
    """Pick one entry per row: ``out[i] = tensor[i, column_index[i]]``.

    Used by the cross-entropy loss to select the log-probability of the
    target class of each node.
    """
    column_index = np.asarray(column_index, dtype=np.int64)
    rows = np.arange(tensor.data.shape[0])
    out_data = tensor.data[rows, column_index]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(tensor.data)
        np.add.at(full, (rows, column_index), _as_array(grad))
        tensor._accumulate(full)

    return Tensor._make(out_data, (tensor,), backward)


def softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = tensor - Tensor(tensor.data.max(axis=axis, keepdims=True))
    exp_values = shifted.exp()
    return exp_values / exp_values.sum(axis=axis, keepdims=True)


def log_softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = tensor - Tensor(tensor.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


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
        logits._accumulate(delta * scale[:, None])

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
    mask = (rng.random(tensor.data.shape) < keep_probability) / keep_probability
    # One fused node instead of the generic broadcasting multiply: same
    # forward multiply, and the adjoint is the same ``grad * mask`` without
    # the unbroadcast bookkeeping (the mask always matches the input shape).
    value = tensor.data * mask

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(_as_array(grad) * mask)

    return Tensor._make(value, (tensor,), backward)


def linear(tensor: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``tensor @ weight + bias``."""
    out = tensor @ weight
    if bias is not None:
        out = out + bias
    return out


def embedding_mean(tensor: Tensor, index_groups: Union[np.ndarray, list]) -> Tensor:
    """Average rows of ``tensor`` grouped by ``index_groups``.

    Convenience wrapper over :func:`scatter_add` used by the POOL layer: the
    groups are given as an integer segment id per row.
    """
    index_groups = np.asarray(index_groups, dtype=np.int64)
    num_segments = int(index_groups.max()) + 1 if index_groups.size else 0
    sums = scatter_add(tensor, index_groups, num_segments)
    counts = get_backend().segment_counts(index_groups, num_segments)
    counts = np.maximum(counts, 1.0).reshape(-1, *([1] * (tensor.data.ndim - 1)))
    return sums / Tensor(counts)
