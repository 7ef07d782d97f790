"""Core graph data structure shared by every subsystem.

The :class:`Graph` class stores an undirected, simple graph with per-node
feature vectors and (optionally) integer labels, which is exactly the data
model of the paper's datasets (Facebook Page-Page and LastFM Asia).  It is an
immutable value object: every transformation (subgraphing, edge splits, ego
extraction) returns a new instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected attributed graph.

    Attributes
    ----------
    num_nodes:
        Number of vertices; vertices are identified by integers ``0..n-1``.
    edges:
        Integer array of shape ``(E, 2)`` holding each undirected edge exactly
        once with ``edges[i, 0] < edges[i, 1]``.
    features:
        Float array of shape ``(n, d)`` with one feature vector per vertex.
    labels:
        Optional integer array of shape ``(n,)`` with class labels.
    name:
        Human-readable dataset name.
    """

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "graph"
    _neighbor_cache: Dict[int, np.ndarray] = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (E, 2)")
        if edges.size and (edges.min() < 0 or edges.max() >= self.num_nodes):
            raise ValueError("edge endpoints must be valid vertex ids")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self loops are not allowed")
        # Canonicalise: smaller endpoint first, deduplicate, sort — on one
        # integer per edge, whose order is the lexicographic one of the pairs.
        if edges.size:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            codes = np.unique(lo * self.num_nodes + hi)
            edges = np.stack([codes // self.num_nodes, codes % self.num_nodes], axis=1)
        object.__setattr__(self, "edges", edges)

        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != self.num_nodes:
            raise ValueError(
                f"features must have shape (num_nodes, d); got {features.shape} "
                f"for {self.num_nodes} nodes"
            )
        object.__setattr__(self, "features", features)

        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (self.num_nodes,):
                raise ValueError("labels must have shape (num_nodes,)")
            object.__setattr__(self, "labels", labels)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.shape[0])

    @property
    def num_features(self) -> int:
        """Feature dimensionality."""
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        """Number of distinct labels (0 when the graph is unlabeled)."""
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def degrees(self) -> np.ndarray:
        """Return the degree of every vertex."""
        degree = np.zeros(self.num_nodes, dtype=np.int64)
        if self.num_edges:
            np.add.at(degree, self.edges[:, 0], 1)
            np.add.at(degree, self.edges[:, 1], 1)
        return degree

    def degree(self, vertex: int) -> int:
        """Return the degree of ``vertex``."""
        return len(self.neighbors(vertex))

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the sorted neighbour ids of ``vertex`` (cached)."""
        if vertex < 0 or vertex >= self.num_nodes:
            raise ValueError(f"vertex {vertex} out of range [0, {self.num_nodes})")
        cached = self._neighbor_cache.get(vertex)
        if cached is not None:
            return cached
        if not self._neighbor_cache and self.num_edges:
            self._build_neighbor_cache()
            return self._neighbor_cache.get(vertex, np.empty(0, dtype=np.int64))
        return np.empty(0, dtype=np.int64)

    def _build_neighbor_cache(self) -> None:
        """Neighbour CSR in one pass: both directions of every edge sorted by
        ``(vertex, neighbour)``, then one slice of that array per vertex."""
        sources, targets = self.directed_edge_index()
        ordered = targets[np.lexsort((targets, sources))]
        row_ends = np.cumsum(np.bincount(sources, minlength=self.num_nodes)).tolist()
        for vertex, (start, stop) in enumerate(zip([0] + row_ends, row_ends)):
            self._neighbor_cache[vertex] = ordered[start:stop]

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether the undirected edge ``(u, v)`` is present."""
        return v in set(self.neighbors(u).tolist())

    def edge_set(self) -> set:
        """Return the set of canonical ``(min, max)`` edge tuples."""
        return {(int(a), int(b)) for a, b in self.edges}

    # ------------------------------------------------------------------ #
    # Matrix views
    # ------------------------------------------------------------------ #
    def adjacency(self, add_self_loops: bool = False) -> sp.csr_matrix:
        """Return the (symmetric) sparse adjacency matrix."""
        if self.num_edges:
            rows = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            cols = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            data = np.ones(rows.shape[0], dtype=np.float64)
        else:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            data = np.empty(0, dtype=np.float64)
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(self.num_nodes, self.num_nodes))
        if add_self_loops:
            matrix = matrix + sp.eye(self.num_nodes, format="csr")
        return matrix

    def directed_edge_index(self, add_self_loops: bool = False) -> np.ndarray:
        """Return a ``(2, 2E [+n])`` directed edge index (both directions)."""
        if self.num_edges:
            src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        if add_self_loops:
            loops = np.arange(self.num_nodes, dtype=np.int64)
            src = np.concatenate([src, loops])
            dst = np.concatenate([dst, loops])
        return np.stack([src, dst], axis=0)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def with_edges(self, edges: np.ndarray) -> "Graph":
        """Return a copy of this graph with a different edge set."""
        return Graph(
            num_nodes=self.num_nodes,
            edges=np.asarray(edges, dtype=np.int64),
            features=self.features,
            labels=self.labels,
            name=self.name,
        )

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Return the induced subgraph on ``vertices`` (relabelled 0..k-1)."""
        vertices = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
        mapping = {int(old): new for new, old in enumerate(vertices)}
        kept = [
            (mapping[int(u)], mapping[int(v)])
            for u, v in self.edges
            if int(u) in mapping and int(v) in mapping
        ]
        edges = np.asarray(kept, dtype=np.int64).reshape(-1, 2)
        return Graph(
            num_nodes=len(vertices),
            edges=edges,
            features=self.features[vertices],
            labels=self.labels[vertices] if self.labels is not None else None,
            name=f"{self.name}-sub",
        )

    def normalized_features(self, lower: float = 0.0, upper: float = 1.0) -> "Graph":
        """Return a copy with features min-max scaled into ``[lower, upper]``.

        The LDP 1-bit encoder assumes features live in a known interval
        ``[a, b]``; this helper produces that interval deterministically.
        """
        features = self.features
        minimum = features.min(axis=0, keepdims=True)
        maximum = features.max(axis=0, keepdims=True)
        span = np.where(maximum - minimum > 0, maximum - minimum, 1.0)
        scaled = lower + (features - minimum) / span * (upper - lower)
        return Graph(
            num_nodes=self.num_nodes,
            edges=self.edges,
            features=scaled,
            labels=self.labels,
            name=self.name,
        )

    def summary(self) -> Dict[str, float]:
        """Return basic statistics used for reporting."""
        degrees = self.degrees()
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_features": self.num_features,
            "num_classes": self.num_classes,
            "avg_degree": float(degrees.mean()) if self.num_nodes else 0.0,
            "max_degree": int(degrees.max()) if self.num_nodes else 0,
        }


def from_edge_list(
    num_nodes: int,
    edge_list: Iterable[Tuple[int, int]],
    features: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
    name: str = "graph",
) -> Graph:
    """Build a :class:`Graph` from an iterable of edge tuples."""
    edges = np.asarray(list(edge_list), dtype=np.int64).reshape(-1, 2)
    if features is None:
        features = np.zeros((num_nodes, 1), dtype=np.float64)
    return Graph(num_nodes=num_nodes, edges=edges, features=features, labels=labels, name=name)


def from_networkx(nx_graph, features: Optional[np.ndarray] = None, labels=None, name: str = "graph") -> Graph:
    """Convert a ``networkx`` graph (nodes must be 0..n-1) to :class:`Graph`."""
    num_nodes = nx_graph.number_of_nodes()
    edges = np.asarray([(int(u), int(v)) for u, v in nx_graph.edges() if u != v], dtype=np.int64)
    edges = edges.reshape(-1, 2)
    if features is None:
        features = np.zeros((num_nodes, 1), dtype=np.float64)
    return Graph(num_nodes=num_nodes, edges=edges, features=features, labels=labels, name=name)
