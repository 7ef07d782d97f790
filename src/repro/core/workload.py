"""Workload-balancing problem state (paper Section V-B).

The decision variable of Eq. 10 is the 0/1 edge-direction assignment
``x_(u,v)`` ("device u keeps neighbour v in its tree").  We represent a
solution as the list of selected-neighbour sets ``(N_1, ..., N_|V|)`` —
exactly the output format of Alg. 1 / Alg. 2 — and provide the objective
``f(X) = max_u |N_u|``, the edge-coverage constraint check and the workload
statistics used by the evaluation (Fig. 7 CDF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph.graph import Graph

# One reversed step of a k-step transition: ``(target, added)`` pairs in
# application order, where ``added`` records whether ``source`` was newly
# inserted into ``N_target`` (it may already have been there when both
# endpoints kept the edge).
TransferRecord = List[Tuple[int, bool]]


@dataclass
class Assignment:
    """A candidate solution of the workload-balancing problem."""

    selected: Dict[int, Set[int]]
    # Flat ``int64`` workload vector indexed by vertex id, maintained
    # incrementally by :meth:`apply_transfer` / :meth:`undo_transfer`.  Built
    # lazily by :meth:`workload_vector`; private to the balancing hot path —
    # callers that mutate ``selected`` directly must not rely on it.
    _workload_vector: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def full(cls, graph: Graph) -> "Assignment":
        """Every device keeps every neighbour (the untrimmed solution)."""
        return cls(
            selected={
                vertex: set(int(v) for v in graph.neighbors(vertex))
                for vertex in range(graph.num_nodes)
            }
        )

    @classmethod
    def from_lists(cls, lists: Mapping[int, Iterable[int]]) -> "Assignment":
        """Build from a mapping of vertex -> iterable of selected neighbours."""
        return cls(selected={int(k): set(int(v) for v in vs) for k, vs in lists.items()})

    def copy(self) -> "Assignment":
        """Deep copy (cheap: sets of ints)."""
        return Assignment(selected={k: set(v) for k, v in self.selected.items()})

    # ------------------------------------------------------------------ #
    # Objective and constraints
    # ------------------------------------------------------------------ #
    def workload(self, vertex: int) -> int:
        """``wl(vertex)`` = number of selected neighbours."""
        return len(self.selected.get(vertex, set()))

    def workloads(self) -> Dict[int, int]:
        """Workload of every device."""
        return {vertex: len(neighbors) for vertex, neighbors in self.selected.items()}

    def workload_array(self) -> np.ndarray:
        """Workloads as an array indexed by vertex id."""
        size = max(self.selected) + 1 if self.selected else 0
        array = np.zeros(size, dtype=np.int64)
        for vertex, neighbors in self.selected.items():
            array[vertex] = len(neighbors)
        return array

    def workload_vector(self, size: int) -> np.ndarray:
        """Maintained flat workload vector of length ``size``.

        Unlike :meth:`workload_array` (a fresh copy per call) the returned
        array is owned by the assignment and updated in place by
        :meth:`apply_transfer` / :meth:`undo_transfer`, so the balancing
        kernel can hold one reference for its whole run.
        """
        if self._workload_vector is None or self._workload_vector.shape[0] != size:
            vector = np.zeros(size, dtype=np.int64)
            for vertex, neighbors in self.selected.items():
                vector[vertex] = len(neighbors)
            self._workload_vector = vector
        return self._workload_vector

    def objective(self) -> int:
        """``f(X) = max_u |N_u|`` — the min-max objective of Eq. 10."""
        if not self.selected:
            return 0
        return max(len(neighbors) for neighbors in self.selected.values())

    def argmax_workload(self) -> int:
        """A vertex attaining the maximum workload (smallest id on ties)."""
        if not self.selected:
            raise ValueError("empty assignment")
        best_vertex, best_value = None, -1
        for vertex in sorted(self.selected):
            value = len(self.selected[vertex])
            if value > best_value:
                best_vertex, best_value = vertex, value
        return int(best_vertex)

    def covers_all_edges(self, graph: Graph) -> bool:
        """Constraint of Eq. 10: ``x_(u,v) + x_(v,u) >= 1`` for every edge."""
        for u, v in graph.edges:
            u, v = int(u), int(v)
            if v not in self.selected.get(u, set()) and u not in self.selected.get(v, set()):
                return False
        return True

    def uncovered_edges(self, graph: Graph) -> List[Tuple[int, int]]:
        """All edges violating the coverage constraint (empty when feasible)."""
        missing = []
        for u, v in graph.edges:
            u, v = int(u), int(v)
            if v not in self.selected.get(u, set()) and u not in self.selected.get(v, set()):
                missing.append((u, v))
        return missing

    def is_consistent_with(self, graph: Graph) -> bool:
        """No device selects a vertex that is not its neighbour."""
        for vertex, neighbors in self.selected.items():
            allowed = set(int(v) for v in graph.neighbors(vertex))
            if not neighbors.issubset(allowed):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Transitions (Eq. 16 / 17)
    # ------------------------------------------------------------------ #
    def transfer(self, source: int, targets: Sequence[int]) -> "Assignment":
        """Return a new assignment after the k-step transition of Eq. 17.

        Each ``v`` in ``targets`` is removed from ``N_source`` and ``source``
        is added to ``N_v``; coverage of the edge ``(source, v)`` is therefore
        preserved by construction.
        """
        result = self.copy()
        result.apply_transfer(source, targets)
        return result

    def apply_transfer(self, source: int, targets: Sequence[int]) -> TransferRecord:
        """Apply the transition of Eq. 17 *in place*, in O(k).

        Returns an undo record for :meth:`undo_transfer`.  The maintained
        workload vector (when built) is updated by deltas, so the balancing
        kernel never rebuilds per-device counts.
        """
        source = int(source)
        source_selected = self.selected.get(source)
        record: TransferRecord = []
        vector = self._workload_vector
        for target in targets:
            target = int(target)
            if source_selected is None or target not in source_selected:
                raise ValueError(f"vertex {target} is not selected by device {source}")
            source_selected.discard(target)
            target_selected = self.selected.setdefault(target, set())
            added = source not in target_selected
            if added:
                target_selected.add(source)
                if vector is not None:
                    vector[target] += 1
            if vector is not None:
                vector[source] -= 1
            record.append((target, added))
        return record

    def undo_transfer(self, source: int, record: TransferRecord) -> None:
        """Revert an :meth:`apply_transfer` given its undo record."""
        source = int(source)
        vector = self._workload_vector
        for target, added in reversed(record):
            if added:
                self.selected[target].discard(source)
                if vector is not None:
                    vector[target] -= 1
            self.selected[source].add(target)
            if vector is not None:
                vector[source] += 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def as_lists(self) -> Dict[int, List[int]]:
        """Return the selection as sorted lists (stable output format)."""
        return {vertex: sorted(neighbors) for vertex, neighbors in self.selected.items()}

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The selection as flat ``(vertices, neighbours)`` arrays, one entry
        per selected pair, ordered by vertex and then by neighbour."""
        counts = [len(neighbors) for neighbors in self.selected.values()]
        vertices = np.repeat(np.fromiter(self.selected, dtype=np.int64, count=len(counts)), counts)
        neighbors = np.fromiter(
            chain.from_iterable(self.selected.values()), dtype=np.int64, count=vertices.shape[0]
        )
        order = np.lexsort((neighbors, vertices))
        return vertices[order], neighbors[order]

    def total_selected_edges(self) -> int:
        """Total number of (vertex, neighbour) selections = total leaves / 2."""
        return sum(len(neighbors) for neighbors in self.selected.values())

    def statistics(self) -> Dict[str, float]:
        """Summary statistics of the workload distribution (used by Fig. 7)."""
        array = self.workload_array().astype(np.float64)
        if array.size == 0:
            return {"max": 0.0, "mean": 0.0, "std": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "max": float(array.max()),
            "mean": float(array.mean()),
            "std": float(array.std()),
            "p95": float(np.percentile(array, 95)),
            "p99": float(np.percentile(array, 99)),
        }


def workload_cdf(workloads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(values, cumulative_probability)`` of the workload CDF (Fig. 7)."""
    workloads = np.asarray(workloads, dtype=np.float64)
    if workloads.size == 0:
        return np.zeros(0), np.zeros(0)
    values = np.sort(workloads)
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities
