"""Loss functions used across the supervised and unsupervised pipelines."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer class ``targets``
    over the rows ``mask`` selects.

    Parameters
    ----------
    logits:
        Tensor of shape ``(N, C)``.
    targets:
        Integer array of shape ``(N,)`` with values in ``[0, C)``.
    mask:
        Boolean array of shape ``(N,)``: the loss is averaged over the masked
        rows only (the training split in transductive node classification).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError("cross_entropy expects 2-D logits")
    if targets.shape[0] != logits.data.shape[0]:
        raise ValueError("logits and targets must agree on the first dimension")
    weights = np.asarray(mask, dtype=bool).astype(np.float64)
    # Single-node loss: forward bits match the composite chain
    # ``-(log_softmax[targets] * weights).sum() / total``; backward is the
    # closed-form softmax adjoint.
    return F.fused_masked_cross_entropy(logits, targets, weights, max(weights.sum(), 1.0))


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


def _log_sigmoid(tensor: Tensor) -> Tensor:
    """Numerically stable ``log(sigmoid(x)) = -softplus(-x)``."""
    negative = -tensor
    clipped = negative.clip(-60.0, 60.0)
    return -(Tensor(np.ones_like(tensor.data)) + clipped.exp()).log()
