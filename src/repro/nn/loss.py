"""Loss functions used across the supervised and unsupervised pipelines."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .tensor import Tensor


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer class ``targets``.

    Parameters
    ----------
    logits:
        Tensor of shape ``(N, C)``.
    targets:
        Integer array of shape ``(N,)`` with values in ``[0, C)``.
    mask:
        Optional boolean array of shape ``(N,)``; when provided the loss is
        averaged only over the masked rows (used to restrict the loss to the
        training split in transductive node classification).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects 2-D logits")
    if targets.shape[0] != logits.data.shape[0]:
        raise ValueError("logits and targets must agree on the first dimension")
    if mask is not None:
        weights = np.asarray(mask, dtype=bool).astype(np.float64)
        # Single-node loss: forward bits match the composite chain
        # ``-(log_softmax[targets] * weights).sum() / total``; backward is the
        # closed-form softmax adjoint.
        return F.fused_masked_cross_entropy(logits, targets, weights, max(weights.sum(), 1.0))
    log_probabilities = F.log_softmax(logits, axis=-1)
    return -F.gather_rows_columns(log_probabilities, targets).mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable binary cross-entropy on raw logits.

    Uses the identity ``BCE(x, y) = max(x, 0) - x*y + log(1 + exp(-|x|))``.
    """
    targets_arr = np.asarray(targets, dtype=np.float64)
    positive_part = logits.clip(0.0, np.inf)
    softplus = (Tensor(np.ones_like(logits.data)) + (-_abs(logits)).exp()).log()
    loss = positive_part - logits * Tensor(targets_arr) + softplus
    return loss.mean()


def nll_loss(log_probabilities: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-likelihood given log-probabilities."""
    picked = F.gather_rows_columns(log_probabilities, np.asarray(targets, dtype=np.int64))
    return -picked.mean()


def link_prediction_loss(
    source: Tensor,
    positive: Tensor,
    negative: Tensor,
) -> Tensor:
    """Unsupervised link-prediction loss (paper Eq. 33).

    ``-sum log sigma(h_u . h_v+)  - sum log sigma(-h_u . h_v-)`` averaged over
    the sampled pairs.  ``source``, ``positive`` and ``negative`` are row-
    aligned embedding tensors.
    """
    positive_scores = (source * positive).sum(axis=-1)
    negative_scores = (source * negative).sum(axis=-1)
    positive_term = _log_sigmoid(positive_scores)
    negative_term = _log_sigmoid(-negative_scores)
    return -(positive_term.mean() + negative_term.mean())


def mse_loss(predictions: Tensor, targets: np.ndarray) -> Tensor:
    """Mean squared error."""
    diff = predictions - Tensor(np.asarray(targets, dtype=np.float64))
    return (diff * diff).mean()


def _abs(tensor: Tensor) -> Tensor:
    """Differentiable absolute value (sub-gradient 0 at the origin)."""
    sign = Tensor(np.sign(tensor.data))
    return tensor * sign


def _log_sigmoid(tensor: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x)) = -softplus(-x)``."""
    negative = -tensor
    clipped = negative.clip(-60.0, 60.0)
    return -(Tensor(np.ones_like(tensor.data)) + clipped.exp()).log()
