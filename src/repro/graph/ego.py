"""Node-level federation: ego networks and the device partition.

In the paper's setting every device *is* one vertex of the global graph and
holds only its ego network ``E(v)``: the identities of its direct neighbours
and the edges from ``v`` to them, plus its own feature vector ``x_v`` and
label ``y_v``.  Crucially, the device knows nothing about other vertices'
features, labels, or the edges among its neighbours.

:class:`EgoNetwork` captures exactly this visibility boundary and
:func:`partition_node_level` produces one ego network per vertex from a
global :class:`~repro.graph.graph.Graph` — this is the "split the graph into
|V| ego networks" step of the paper's experimental setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .graph import Graph


@dataclass
class EgoNetwork:
    """The local view of one device in the node-level federated setting.

    Attributes
    ----------
    center:
        Global vertex id of the device.
    neighbors:
        Sorted array of the global ids of the direct neighbours.
    feature:
        Feature vector of the centre vertex only.
    label:
        Label of the centre vertex only (``None`` for unlabeled graphs).
    """

    center: int
    neighbors: np.ndarray
    feature: np.ndarray
    label: Optional[int] = None

    def __post_init__(self) -> None:
        self.neighbors = np.array(self.neighbors, dtype=np.int64).reshape(-1)
        self.neighbors.sort()
        self.feature = np.asarray(self.feature, dtype=np.float64)
        if self.has_neighbor(self.center):
            raise ValueError("an ego network cannot contain the centre as its own neighbour")

    @property
    def degree(self) -> int:
        """Degree of the centre vertex (private to the device)."""
        return int(self.neighbors.shape[0])

    def has_neighbor(self, vertex: int) -> bool:
        """Return whether ``vertex`` is a direct neighbour."""
        position = int(self.neighbors.searchsorted(vertex))
        return position < self.degree and bool(self.neighbors[position] == vertex)

    def edge_tuples(self) -> List[tuple]:
        """Return the canonical ``(min, max)`` tuples of the local edges."""
        return [
            (min(self.center, int(v)), max(self.center, int(v))) for v in self.neighbors
        ]


def partition_node_level(graph: Graph) -> Dict[int, EgoNetwork]:
    """Split ``graph`` into one :class:`EgoNetwork` per vertex.

    This mirrors the experimental setup of the paper: "We split the graphs
    into |V| ego networks so that each device represented by one vertex in
    the graph holds its corresponding ego network".
    """
    partition: Dict[int, EgoNetwork] = {}
    labels = graph.labels
    for vertex in range(graph.num_nodes):
        partition[vertex] = EgoNetwork(
            center=vertex,
            neighbors=graph.neighbors(vertex),
            feature=graph.features[vertex],
            label=int(labels[vertex]) if labels is not None else None,
        )
    return partition


def validate_partition(graph: Graph, partition: Dict[int, EgoNetwork]) -> None:
    """Check that a partition is consistent with the global graph.

    Raises ``ValueError`` when the partition drops or invents edges, or when
    feature/label ownership is violated.  Used by tests and by the federated
    simulator's sanity checks.
    """
    if set(partition) != set(range(graph.num_nodes)):
        raise ValueError("partition must contain exactly one ego network per vertex")
    seen_edges = set()
    for vertex, ego in partition.items():
        if ego.center != vertex:
            raise ValueError(f"ego network stored under {vertex} has centre {ego.center}")
        if not np.allclose(ego.feature, graph.features[vertex]):
            raise ValueError(f"feature mismatch for vertex {vertex}")
        if graph.labels is not None and ego.label != int(graph.labels[vertex]):
            raise ValueError(f"label mismatch for vertex {vertex}")
        if not np.array_equal(ego.neighbors, graph.neighbors(vertex)):
            raise ValueError(f"neighbour set mismatch for vertex {vertex}")
        for u, v in ego.edge_tuples():
            seen_edges.add((u, v))
    if seen_edges != graph.edge_set():
        raise ValueError("the union of ego-network edges must equal the global edge set")
