"""Train / validation / test splits for node and edge tasks.

The paper uses:

* supervised node classification — vertices split 50 / 25 / 25;
* unsupervised link prediction — edges split 80 / 5 / 15, with an equal
  number of negative (non-edge) samples per split for ROC-AUC evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class NodeSplit:
    """Boolean masks over vertices for transductive node classification."""

    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self) -> None:
        for mask in (self.train_mask, self.val_mask, self.test_mask):
            if mask.dtype != bool:
                raise ValueError("split masks must be boolean arrays")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise ValueError("node split masks must be disjoint")


@dataclass(frozen=True)
class EdgeSplit:
    """Edge-level split with negative samples for link prediction.

    ``train_edges`` are the *message passing and supervision* edges; the
    validation/test positives are held out of the training graph, matching
    the standard transductive link-prediction protocol.
    """

    train_edges: np.ndarray
    val_edges: np.ndarray
    test_edges: np.ndarray
    val_negatives: np.ndarray
    test_negatives: np.ndarray

    def training_graph(self, graph: Graph) -> Graph:
        """Return a copy of ``graph`` containing only the training edges."""
        return graph.with_edges(self.train_edges)


def split_nodes(
    graph: Graph,
    train_fraction: float = 0.5,
    val_fraction: float = 0.25,
    seed: int = 0,
) -> NodeSplit:
    """Uniformly sample vertices into train/val/test masks (paper: 50/25/25)."""
    if not 0 < train_fraction < 1 or not 0 <= val_fraction < 1:
        raise ValueError("fractions must lie in (0, 1)")
    if train_fraction + val_fraction >= 1.0:
        raise ValueError("train + val fraction must be < 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.num_nodes)
    num_train = int(round(train_fraction * graph.num_nodes))
    num_val = int(round(val_fraction * graph.num_nodes))
    train_idx = order[:num_train]
    val_idx = order[num_train : num_train + num_val]
    test_idx = order[num_train + num_val :]

    def mask_of(indices: np.ndarray) -> np.ndarray:
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[indices] = True
        return mask

    return NodeSplit(mask_of(train_idx), mask_of(val_idx), mask_of(test_idx))


def sample_negative_edges(
    graph: Graph,
    count: int,
    rng: np.random.Generator,
    forbidden: Optional[set] = None,
) -> np.ndarray:
    """Sample ``count`` vertex pairs that are not edges of ``graph``."""
    existing = graph.edge_set()
    if forbidden:
        existing = existing | set(forbidden)
    negatives = []
    seen = set()
    max_attempts = count * 200 + 1000
    attempts = 0
    while len(negatives) < count and attempts < max_attempts:
        attempts += 1
        u = int(rng.integers(graph.num_nodes))
        v = int(rng.integers(graph.num_nodes))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing or key in seen:
            continue
        seen.add(key)
        negatives.append(key)
    if len(negatives) < count:
        raise RuntimeError(
            f"could only sample {len(negatives)} of {count} negative edges; "
            "graph may be too dense"
        )
    return np.asarray(negatives, dtype=np.int64)


def split_edges(
    graph: Graph,
    train_fraction: float = 0.8,
    val_fraction: float = 0.05,
    seed: int = 0,
) -> EdgeSplit:
    """Uniformly sample edges into train/val/test sets (paper: 80/5/15)."""
    if graph.num_edges < 10:
        raise ValueError("graph too small for an edge split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.num_edges)
    num_train = int(round(train_fraction * graph.num_edges))
    num_val = int(round(val_fraction * graph.num_edges))
    train_edges = graph.edges[order[:num_train]]
    val_edges = graph.edges[order[num_train : num_train + num_val]]
    test_edges = graph.edges[order[num_train + num_val :]]

    val_negatives = sample_negative_edges(graph, len(val_edges), rng)
    forbidden = {tuple(edge) for edge in val_negatives}
    test_negatives = sample_negative_edges(graph, len(test_edges), rng, forbidden=forbidden)
    return EdgeSplit(
        train_edges=train_edges,
        val_edges=val_edges,
        test_edges=test_edges,
        val_negatives=val_negatives,
        test_negatives=test_negatives,
    )
