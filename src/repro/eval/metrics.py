"""Evaluation metrics: classification accuracy and ROC-AUC."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


def accuracy(targets: np.ndarray, predictions: np.ndarray, mask: Optional[np.ndarray] = None) -> float:
    """Fraction of correct predictions, optionally restricted to ``mask``."""
    targets = np.asarray(targets)
    predictions = np.asarray(predictions)
    if targets.shape != predictions.shape:
        raise ValueError("targets and predictions must have the same shape")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        targets = targets[mask]
        predictions = predictions[mask]
    if targets.size == 0:
        return 0.0
    return float((targets == predictions).mean())


def roc_auc_score(targets: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve.

    Computed via the rank statistic (equivalent to the Mann-Whitney U):
    the probability that a random positive receives a higher score than a
    random negative, with ties counted as one half (matching the definition
    the paper cites from Fawcett, 2006).
    """
    targets = np.asarray(targets, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if targets.shape != scores.shape:
        raise ValueError("targets and scores must have the same shape")
    positives = scores[targets == 1]
    negatives = scores[targets == 0]
    if positives.size == 0 or negatives.size == 0:
        return 0.5
    # Rank-based computation handles ties exactly.
    order = np.argsort(np.concatenate([positives, negatives]), kind="mergesort")
    ranks = np.empty(order.size, dtype=np.float64)
    sorted_scores = np.concatenate([positives, negatives])[order]
    ranks[order] = _average_ranks(sorted_scores)
    positive_ranks = ranks[: positives.size]
    auc = (positive_ranks.sum() - positives.size * (positives.size + 1) / 2.0) / (
        positives.size * negatives.size
    )
    return float(auc)


def _average_ranks(sorted_values: np.ndarray) -> np.ndarray:
    """1-based ranks of an already sorted array with ties averaged."""
    n = sorted_values.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    index = 0
    while index < n:
        stop = index
        while stop + 1 < n and sorted_values[stop + 1] == sorted_values[index]:
            stop += 1
        if stop > index:
            ranks[index : stop + 1] = ranks[index : stop + 1].mean()
        index = stop + 1
    return ranks


def relative_change(reference: float, value: float) -> float:
    """Relative change ``(value - reference) / reference`` in percent."""
    if reference == 0:
        return 0.0
    return 100.0 * (value - reference) / reference
