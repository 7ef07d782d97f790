"""Core graph data structure shared by every subsystem.

The :class:`Graph` class stores an undirected, simple graph with per-node
feature vectors and (optionally) integer labels, which is exactly the data
model of the paper's datasets (Facebook Page-Page and LastFM Asia).  It is an
immutable value object: its arrays are read-only copies of what it was
given, and every transformation (edge splits, feature scaling) returns a new
instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

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
        Optional array of shape ``(n,)`` with non-negative integer class labels.
    name:
        Human-readable dataset name.

    Edge endpoints and labels must be integers (integral floats are taken as
    such) and features finite; anything else is a ``ValueError``.  The
    graph stores its own read-only copy of each array, so no write reaches
    it: a write through its arrays is a ``ValueError``, and a write through
    the array the caller passed in changes only the caller's array.
    Fingerprints and normalized twins are memoised per graph object, so
    either write would otherwise leave them silently stale.
    """

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "graph"

    def __post_init__(self) -> None:
        edges = _integers(self.edges, "edge endpoints")
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
        object.__setattr__(self, "edges", _read_only(edges))

        features = np.array(self.features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != self.num_nodes:
            raise ValueError(
                f"features must have shape (num_nodes, d); got {features.shape} "
                f"for {self.num_nodes} nodes"
            )
        infinite = np.flatnonzero(~np.isfinite(features).all(axis=1))
        if infinite.size:
            raise ValueError(
                f"features must be finite: vertex {int(infinite[0])} has a NaN or inf"
            )
        object.__setattr__(self, "features", _read_only(features))

        if self.labels is not None:
            labels = _integers(self.labels, "labels")
            if labels.shape != (self.num_nodes,):
                raise ValueError("labels must have shape (num_nodes,)")
            negative = np.flatnonzero(labels < 0)
            if negative.size:
                raise ValueError(
                    f"labels must be non-negative: vertex {int(negative[0])} has "
                    f"{int(labels[negative[0]])}"
                )
            object.__setattr__(self, "labels", _read_only(labels))

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

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the sorted neighbour ids of ``vertex``: a read-only row of :attr:`csr`."""
        if isinstance(vertex, bool) or not isinstance(vertex, (int, np.integer)):
            raise TypeError(f"vertex ids are integers, not {type(vertex).__name__} {vertex!r}")
        if vertex < 0 or vertex >= self.num_nodes:
            raise ValueError(f"vertex {vertex} out of range [0, {self.num_nodes})")
        indptr, indices = self.csr
        return indices[indptr[vertex] : indptr[vertex + 1]]

    @cached_property
    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(indptr, indices)`` neighbour CSR, built on first use:
        both directions of every edge sorted by ``(vertex, neighbour)``, so row
        ``v`` lists ``v``'s neighbours in ascending order."""
        sources, targets = self.directed_edge_index()
        indices = targets[np.lexsort((targets, sources))]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=self.num_nodes), out=indptr[1:])
        indptr.flags.writeable = indices.flags.writeable = False
        return indptr, indices

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


def partition_node_level(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``graph`` into its devices: ``(indptr, indices, features)``.

    This mirrors the experimental setup of the paper: "We split the graphs
    into |V| ego networks so that each device represented by one vertex in
    the graph holds its corresponding ego network".  Device ``v`` is row
    ``v``: its neighbours ``indices[indptr[v]:indptr[v + 1]]`` and its own
    feature ``features[v]``.  The three arrays are read-only and shared with
    ``graph``; no per-vertex object is built.
    """
    indptr, indices = graph.csr
    return indptr, indices, graph.features


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (the caller's array keeps its flags)."""
    view = array.view()
    view.flags.writeable = False
    return view


def _integers(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array; a non-integral or non-finite entry is a
    ``ValueError``."""
    array = np.asarray(values)
    if array.dtype.kind == "f":
        fractional = np.flatnonzero(~np.isfinite(array) | (array != np.round(array)))
        if fractional.size:
            raise ValueError(f"{what} must be integers, got {float(array.flat[fractional[0]])}")
    return array.astype(np.int64)
