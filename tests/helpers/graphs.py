"""Tiny deterministic graphs for tests.

A Watts-Strogatz-style small world and a star, the canonical
degree-heterogeneous toy case.  Production loads only the paper's two
datasets (:func:`repro.graph.load_dataset`); these shapes exist for the
equivalence and edge-case tests.
"""

from __future__ import annotations

import numpy as np

from repro.graph import Graph
from repro.graph.generators import _connect_isolated


def generate_small_world(
    num_nodes: int = 100,
    k: int = 4,
    rewire_probability: float = 0.1,
    num_features: int = 8,
    num_classes: int = 2,
    seed: int = 0,
) -> Graph:
    """Small Watts-Strogatz-style graph."""
    rng = np.random.default_rng(seed)
    edges = set()
    for vertex in range(num_nodes):
        for offset in range(1, k // 2 + 1):
            neighbor = (vertex + offset) % num_nodes
            if rng.random() < rewire_probability:
                neighbor = int(rng.integers(num_nodes))
            if neighbor != vertex:
                edges.add((min(vertex, neighbor), max(vertex, neighbor)))
    labels = rng.integers(num_classes, size=num_nodes)
    features = rng.random((num_nodes, num_features))
    features += labels[:, None] * 0.3
    edge_array = _connect_isolated(
        np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2), num_nodes, rng
    )
    return Graph(
        num_nodes=num_nodes,
        edges=edge_array,
        features=features,
        labels=labels.astype(np.int64),
        name="small-world",
    )


def generate_star(num_leaves: int = 5, num_features: int = 4, seed: int = 0) -> Graph:
    """A star graph: the canonical degree-heterogeneous toy case."""
    rng = np.random.default_rng(seed)
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    num_nodes = num_leaves + 1
    features = rng.random((num_nodes, num_features))
    labels = np.asarray([0] + [1] * num_leaves, dtype=np.int64)
    return Graph(
        num_nodes=num_nodes,
        edges=np.asarray(edges, dtype=np.int64),
        features=features,
        labels=labels,
        name="star",
    )
