"""The autograd ops only the composite oracles record.

Production trains through single-node fused layers and losses
(:mod:`repro.nn.functional`), so :class:`repro.nn.tensor.Tensor` carries only
the ops those runs record.  The composite (op-for-op) forms in ``oracles.py``
also subtract, divide, reshape, rectify, scatter-add, mean-pool and take a
log-softmax: here are those ops, each one autograd node with its adjoint,
and :func:`zero_grad` for a module the tests step without an optimizer.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import get_backend
from repro.nn.tensor import Tensor, _as_array


def _tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def sub(left, right) -> Tensor:
    """``left - right`` (either may be a constant array or scalar)."""
    left, right = _tensor(left), _tensor(right)

    def backward(grad: np.ndarray) -> None:
        left._accumulate(grad)
        right._accumulate(-grad)

    return Tensor._make(left.data - right.data, (left, right), backward)


def div(left, right) -> Tensor:
    """``left / right`` (either may be a constant array or scalar)."""
    left, right = _tensor(left), _tensor(right)

    def backward(grad: np.ndarray) -> None:
        left._accumulate(grad / right.data)
        right._accumulate(-grad * left.data / (right.data ** 2))

    return Tensor._make(left.data / right.data, (left, right), backward)


def reshape(tensor: Tensor, *shape: int) -> Tensor:
    original = tensor.data.shape

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(grad.reshape(original))

    return Tensor._make(tensor.data.reshape(shape), (tensor,), backward)


def leaky_relu(tensor: Tensor, negative_slope: float = 0.2) -> Tensor:
    mask = np.where(tensor.data > 0, 1.0, negative_slope)

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(grad * mask)

    return Tensor._make(tensor.data * mask, (tensor,), backward)


def relu(tensor: Tensor) -> Tensor:
    return leaky_relu(tensor, 0.0)


def scatter_add(tensor: Tensor, index: np.ndarray, num_segments: int) -> Tensor:
    """``out[k] = sum_{i : index[i] == k} tensor[i]``; a bucket's gradient
    flows back (as a copy) to every row that contributed to it."""
    backend = get_backend()
    index = np.asarray(index, dtype=np.int64)

    def backward(grad: np.ndarray) -> None:
        tensor._accumulate(backend.take_rows(_as_array(grad), index))

    out = backend.scatter_rows(tensor.data, index, num_segments)
    return Tensor._make(out, (tensor,), backward)


def mean_pool(embeddings: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Average the rows of ``embeddings`` that share a segment id (Eq. 31's
    POOL, as scatter-add and divide nodes; an empty segment is zero)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    counts = np.maximum(counts, 1.0).reshape(-1, *([1] * (embeddings.data.ndim - 1)))
    return div(scatter_add(embeddings, segment_ids, num_segments), counts)


def gather_rows_columns(tensor: Tensor, column_index: np.ndarray) -> Tensor:
    """Pick one entry per row: ``out[i] = tensor[i, column_index[i]]``."""
    column_index = np.asarray(column_index, dtype=np.int64)
    rows = np.arange(tensor.data.shape[0])

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(tensor.data)
        np.add.at(full, (rows, column_index), _as_array(grad))
        tensor._accumulate(full)

    return Tensor._make(tensor.data[rows, column_index], (tensor,), backward)


def log_softmax(tensor: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = sub(tensor, tensor.data.max(axis=axis, keepdims=True))
    return sub(shifted, shifted.exp().sum(axis=axis, keepdims=True).log())


def zero_grad(module) -> None:
    """Clear the gradient of every parameter of ``module``."""
    for parameter in module.parameters():
        parameter.zero_grad()
