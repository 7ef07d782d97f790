"""Tree construction from ego networks (paper Section V-A).

For a device ``u`` with selected neighbours ``N_u = {v_1, ..., v_w}`` the
constructed tree ``T(u)`` is:

* ``w`` **leaf pairs** ``(u, v_k)`` — the centre vertex ``u`` is replicated
  once per pair so that its (only non-noised) feature is used more often;
* one virtual **parent node** ``P_k`` joining each leaf pair — it represents
  the two-vertex subgraph ``{u, v_k}`` plus the edge between them;
* one virtual **root node** ``R`` whose children are all parent nodes — it
  represents the whole ego network.

The ablation "Lumos w.o. VN" skips the virtual nodes and uses the plain ego
star (centre connected to each selected neighbour) as the local graph; both
variants implement the same :class:`LocalGraph` interface so the trainer does
not care which one it gets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class NodeRole(Enum):
    """Role of a node inside a local (per-device) graph."""

    CENTER_LEAF = "center_leaf"
    NEIGHBOR_LEAF = "neighbor_leaf"
    PARENT = "parent"
    ROOT = "root"
    CENTER = "center"  # used by the star (no-virtual-node) variant


@dataclass(frozen=True)
class LocalNode:
    """One node of a local graph.

    ``vertex`` is the global vertex id the node refers to, or ``None`` for
    virtual nodes.
    """

    local_id: int
    role: NodeRole
    vertex: Optional[int]


@dataclass
class LocalGraph:
    """The per-device graph (tree or star) the GNN trainer operates on."""

    owner: int
    nodes: List[LocalNode]
    edges: List[Tuple[int, int]]

    def __post_init__(self) -> None:
        ids = [node.local_id for node in self.nodes]
        if ids != list(range(len(self.nodes))):
            raise ValueError("local node ids must be consecutive starting at 0")
        for u, v in self.edges:
            if not (0 <= u < len(self.nodes) and 0 <= v < len(self.nodes)):
                raise ValueError("edge endpoint out of range")
            if u == v:
                raise ValueError("self loops are not allowed in local graphs")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def leaves(self) -> List[LocalNode]:
        """All nodes that refer to a global vertex (leaf pairs or star nodes)."""
        return [node for node in self.nodes if node.vertex is not None]

    def nodes_for_vertex(self, vertex: int) -> List[LocalNode]:
        """All local nodes referring to global ``vertex``."""
        return [node for node in self.nodes if node.vertex == vertex]

    def neighbor_vertices(self) -> List[int]:
        """Global ids of the neighbour vertices present in this local graph."""
        return sorted(
            {node.vertex for node in self.nodes if node.role is NodeRole.NEIGHBOR_LEAF}
        )

    def depth(self) -> int:
        """Longest path (in edges) from the structural root to any node.

        For the virtual-node tree this is 2 (root -> parent -> leaf); for the
        star it is 1; degenerate graphs return 0.
        """
        if not self.edges:
            return 0
        adjacency: Dict[int, List[int]] = {node.local_id: [] for node in self.nodes}
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        root_candidates = [n.local_id for n in self.nodes if n.role in (NodeRole.ROOT, NodeRole.CENTER)]
        root = root_candidates[0] if root_candidates else 0
        # BFS from the root.
        depth = {root: 0}
        frontier = [root]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in depth:
                        depth[neighbor] = depth[node] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return max(depth.values())

    def is_tree(self) -> bool:
        """Whether the local graph is connected and acyclic."""
        if self.num_nodes == 0:
            return True
        if self.num_edges != self.num_nodes - 1:
            return False
        # Connectivity check via union-find.
        parent = list(range(self.num_nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            parent[find(u)] = find(v)
        roots = {find(x) for x in range(self.num_nodes)}
        return len(roots) == 1


def build_tree(owner: int, selected_neighbors: Sequence[int]) -> LocalGraph:
    """Build the Lumos tree ``T(owner)`` from the selected neighbour list.

    The layout (Fig. 2 of the paper): one root, one parent per leaf pair,
    one centre-leaf replica and one neighbour leaf per pair.  A device whose
    selection is empty still gets a one-node graph (its own centre leaf) so
    its own feature participates in pooling.
    """
    neighbors = [int(v) for v in selected_neighbors]
    nodes: List[LocalNode] = []
    edges: List[Tuple[int, int]] = []

    if not neighbors:
        nodes.append(LocalNode(local_id=0, role=NodeRole.CENTER_LEAF, vertex=owner))
        return LocalGraph(owner=owner, nodes=nodes, edges=edges)

    root_id = 0
    nodes.append(LocalNode(local_id=root_id, role=NodeRole.ROOT, vertex=None))
    next_id = 1
    for neighbor in neighbors:
        parent_id = next_id
        center_id = next_id + 1
        leaf_id = next_id + 2
        next_id += 3
        nodes.append(LocalNode(local_id=parent_id, role=NodeRole.PARENT, vertex=None))
        nodes.append(LocalNode(local_id=center_id, role=NodeRole.CENTER_LEAF, vertex=owner))
        nodes.append(LocalNode(local_id=leaf_id, role=NodeRole.NEIGHBOR_LEAF, vertex=neighbor))
        edges.append((root_id, parent_id))
        edges.append((parent_id, center_id))
        edges.append((parent_id, leaf_id))
    return LocalGraph(owner=owner, nodes=nodes, edges=edges)


def build_star(owner: int, selected_neighbors: Sequence[int]) -> LocalGraph:
    """Build the plain ego star used by the "Lumos w.o. VN" ablation.

    The centre vertex is connected directly to each selected neighbour; there
    are no virtual nodes and no centre replication.
    """
    neighbors = [int(v) for v in selected_neighbors]
    nodes: List[LocalNode] = [LocalNode(local_id=0, role=NodeRole.CENTER, vertex=owner)]
    edges: List[Tuple[int, int]] = []
    for offset, neighbor in enumerate(neighbors, start=1):
        nodes.append(LocalNode(local_id=offset, role=NodeRole.NEIGHBOR_LEAF, vertex=neighbor))
        edges.append((0, offset))
    return LocalGraph(owner=owner, nodes=nodes, edges=edges)


def expected_tree_size(workload: int) -> int:
    """Number of nodes of a Lumos tree for a given workload (3*wl + 1)."""
    if workload < 0:
        raise ValueError("workload must be non-negative")
    return 1 if workload == 0 else 3 * workload + 1


def local_graph_sizes(workloads: np.ndarray, virtual_nodes: bool = True) -> np.ndarray:
    """Node counts of the local graphs for an array of workloads: the array
    form of :func:`expected_tree_size`, or ``wl + 1`` for the plain ego star."""
    if not virtual_nodes:
        return workloads + 1
    return np.where(workloads > 0, 3 * workloads + 1, 1)


def count_leaves(local_graph: LocalGraph) -> int:
    """Number of leaf nodes referring to real vertices (2 * workload for trees)."""
    return len(local_graph.leaves()) - (
        1 if any(node.role is NodeRole.CENTER for node in local_graph.nodes) else 0
    )
