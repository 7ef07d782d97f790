"""Link-prediction training objective and score, shared by Lumos and the baselines."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..eval.metrics import roc_auc_score
from ..nn import functional as F
from ..nn.backend import get_backend
from ..nn.loss import link_prediction_loss
from ..nn.tensor import Tensor


def negative_sampler(
    positive_pairs: np.ndarray, num_vertices: int, rng: np.random.Generator
) -> Callable[[], np.ndarray]:
    """Sampler of one negative endpoint per positive pair.

    Each call of the returned function draws, for every positive ``(u, v)``,
    a vertex ``w != u`` with ``(u, w)`` not a positive pair, by vectorised
    rejection sampling from ``rng``: every still-invalid row redraws its
    candidate, up to 20 rounds (after which the last candidate is kept).
    """
    pairs = np.asarray(positive_pairs, dtype=np.int64)
    sources = pairs[:, 0]
    base = max(num_vertices, int(pairs.max()) + 1 if pairs.size else 1)
    # Sorted codes ``min * base + max`` of the undirected positive pairs.
    edge_codes = np.unique(
        np.minimum(sources, pairs[:, 1]) * base + np.maximum(sources, pairs[:, 1])
    )

    def sample() -> np.ndarray:
        candidates = np.empty(sources.shape[0], dtype=np.int64)
        pending = np.arange(sources.shape[0])
        for _ in range(20):
            if pending.size == 0:
                break
            draws = rng.integers(num_vertices, size=pending.shape[0])
            candidates[pending] = draws
            pending_sources = sources[pending]
            codes = np.minimum(pending_sources, draws) * base + np.maximum(pending_sources, draws)
            positions = np.minimum(np.searchsorted(edge_codes, codes), edge_codes.shape[0] - 1)
            pending = pending[(draws == pending_sources) | (edge_codes[positions] == codes)]
        return candidates

    return sample


def link_prediction_objective(
    positive_pairs: np.ndarray, num_vertices: int, rng: np.random.Generator
) -> Callable[[Tensor], Tensor]:
    """Eq. 33 over ``positive_pairs`` as a function of the vertex embeddings,
    with a fresh :func:`negative_sampler` draw per call.

    The two positive-pair gathers are the same every call: their selection
    operators are prepared here, once, so no backward rebuilds them.
    """
    pairs = np.asarray(positive_pairs, dtype=np.int64)
    sample = negative_sampler(pairs, num_vertices, rng)
    backend = get_backend()
    sources = backend.row_selection(pairs[:, 0], num_vertices)
    targets = backend.row_selection(pairs[:, 1], num_vertices)

    def objective(embeddings: Tensor) -> Tensor:
        return link_prediction_loss(
            F.gather(embeddings, sources),
            F.gather(embeddings, targets),
            F.gather(embeddings, sample()),
        )

    return objective


def roc_auc_from_embeddings(
    embeddings: np.ndarray, positive_edges: np.ndarray, negative_edges: np.ndarray
) -> float:
    """ROC-AUC of inner-product scores on positive vs negative vertex pairs."""
    positive_edges = np.asarray(positive_edges, dtype=np.int64)
    negative_edges = np.asarray(negative_edges, dtype=np.int64)
    positive_scores = np.sum(
        embeddings[positive_edges[:, 0]] * embeddings[positive_edges[:, 1]], axis=1
    )
    negative_scores = np.sum(
        embeddings[negative_edges[:, 0]] * embeddings[negative_edges[:, 1]], axis=1
    )
    scores = np.concatenate([positive_scores, negative_scores])
    targets = np.concatenate([np.ones(len(positive_scores)), np.zeros(len(negative_scores))])
    return roc_auc_score(targets, scores)
