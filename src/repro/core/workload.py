"""Workload-balancing problem state (paper Section V-B).

The decision variable of Eq. 10 is one bit per directed edge: ``x_(u,v)``,
"device u keeps neighbour v in its tree".  :class:`Assignment` is exactly
that, a bool ``kept`` over the positions of the environment's neighbour CSR,
with the objective ``f(X) = max_u |N_u|``, the edge-coverage constraint
check and the k-step transition of Eq. 17.  Alg. 1 computes the mask,
Alg. 2 flips bits of a copy, and the trainer and the LDP exchange read the
kept pairs off it; the representation never changes on the way.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..federation.simulator import row_counts, selection_mask
from ..graph.graph import Graph

# One reversed step of a k-step transition: ``(position, added)`` pairs in
# application order, where ``position`` is the CSR position of
# ``(source, target)`` and ``added`` records whether ``(target, source)`` was
# newly kept (it may already have been when both endpoints kept the edge).
TransferRecord = List[Tuple[int, bool]]


@dataclass(eq=False)
class Assignment:
    """A candidate solution: which positions of the neighbour CSR are kept.

    ``indptr`` / ``indices`` are the environment's read-only CSR, referred
    to and never copied; ``kept[p]`` is ``x_(u,v)`` for the pair ``(u, v)``
    at position ``p``.  Device ``u``'s selection is therefore its CSR row
    masked by ``kept``, ascending by construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    kept: np.ndarray
    # Per-device workloads, maintained by apply_transfer / undo_transfer.
    _workloads: np.ndarray = field(init=False, repr=False)
    # The position of ``(v, u)`` for each ``(u, v)``: built by the first
    # transfer and shared with later copies.
    _reverse: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.kept = selection_mask(self.kept, self.indices)
        self._workloads = row_counts(self.indptr, self.kept)

    def copy(self) -> "Assignment":
        """A copy with its own mask and workloads (the CSR is shared)."""
        clone = copy.copy(self)
        clone.kept, clone._workloads = self.kept.copy(), self._workloads.copy()
        return clone

    # ------------------------------------------------------------------ #
    # Objective and constraints
    # ------------------------------------------------------------------ #
    def workload_array(self) -> np.ndarray:
        """Workloads ``|N_u|`` indexed by device id: a read-only view of the
        vector :meth:`apply_transfer` / :meth:`undo_transfer` update in place,
        so a holder sees every later transfer."""
        view = self._workloads.view()
        view.flags.writeable = False
        return view

    def objective(self) -> int:
        """``f(X) = max_u |N_u|`` — the min-max objective of Eq. 10."""
        return int(self._workloads.max(initial=0))

    def kept_neighbors(self, device: int) -> np.ndarray:
        """Device ``device``'s selected neighbours, ascending."""
        start, stop = self.indptr[device], self.indptr[device + 1]
        return self.indices[start:stop][self.kept[start:stop]]

    def covers_all_edges(self, graph: Graph) -> bool:
        """Constraint of Eq. 10 for every edge of ``graph``: ``x_(u,v) +
        x_(v,u) >= 1``.  Each edge is looked up in the CSR, so an edge the
        CSR does not hold is uncovered."""
        n = self.indptr.shape[0] - 1
        u, v = graph.edges.T
        if graph.num_edges and int(graph.edges.max()) >= n:
            return False
        # Kept pairs as ascending codes ``u * n + v``; the sentinel is what a
        # lookup past the last one reads.
        devices, neighbors = self.pairs()
        codes = np.append(devices * n + neighbors, -1)

        def kept(a, b):
            wanted = a * n + b
            return codes[np.searchsorted(codes[:-1], wanted)] == wanted

        return bool((kept(u, v) | kept(v, u)).all())

    # ------------------------------------------------------------------ #
    # Transitions (Eq. 16 / 17)
    # ------------------------------------------------------------------ #
    def _reverse_positions(self) -> np.ndarray:
        """The position of ``(v, u)`` for each position of ``(u, v)``.

        It is the transpose of the CSR whose value at each position is that
        position: a symmetric CSR is its own transpose, so the transpose's
        values, in CSR order, are the reversed pairs' positions.  A CSR where
        ``u`` lists ``v`` but ``v`` does not list ``u`` is not its own
        transpose and has no reverse, so no transfer (``ValueError``).
        """
        if self._reverse is None:
            n, size = self.indptr.shape[0] - 1, self.indices.shape[0]
            positions = sp.csr_matrix((np.arange(size), self.indices, self.indptr), shape=(n, n))
            transpose = positions.tocsc()
            if not (
                np.array_equal(transpose.indptr, self.indptr)
                and np.array_equal(transpose.indices, self.indices)
            ):
                raise ValueError("a transfer needs a symmetric neighbour CSR")
            self._reverse = transpose.data
        return self._reverse

    def apply_transfer(self, source: int, targets: Sequence[int]) -> TransferRecord:
        """Apply the transition of Eq. 17 *in place*, in O(k).

        Each ``v`` in ``targets`` is removed from ``N_source`` and ``source``
        is added to ``N_v``; coverage of the edge ``(source, v)`` is therefore
        preserved by construction.  Returns the undo record for
        :meth:`undo_transfer`; the workloads are updated by deltas.
        """
        source = int(source)
        reverse = self._reverse_positions()
        start, stop = int(self.indptr[source]), int(self.indptr[source + 1])
        row = self.indices[start:stop]
        kept, workloads = self.kept, self._workloads
        record: TransferRecord = []
        for target in targets:
            target = int(target)
            position = start + int(np.searchsorted(row, target))
            if position == stop or row[position - start] != target or not kept[position]:
                raise ValueError(f"vertex {target} is not selected by device {source}")
            kept[position] = False
            back = int(reverse[position])
            added = not kept[back]
            if added:
                kept[back] = True
                workloads[target] += 1
            workloads[source] -= 1
            record.append((position, added))
        return record

    def undo_transfer(self, source: int, record: TransferRecord) -> None:
        """Revert an :meth:`apply_transfer` given its undo record."""
        kept, reverse, workloads = self.kept, self._reverse, self._workloads
        for position, added in reversed(record):
            if added:
                kept[reverse[position]] = False
                workloads[self.indices[position]] -= 1
            kept[position] = True
            workloads[source] += 1

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def as_lists(self) -> Dict[int, List[int]]:
        """Every device's selected neighbours as a sorted list."""
        kept = self.indices[self.kept].tolist()
        ends = np.cumsum(self._workloads).tolist()
        return {device: kept[start:stop] for device, (start, stop) in enumerate(zip([0] + ends, ends))}

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The selection as flat ``(devices, neighbours)`` arrays, one entry
        per kept pair, in CSR order: by device, then by neighbour."""
        devices = np.repeat(np.arange(self._workloads.shape[0], dtype=np.int64), self._workloads)
        return devices, self.indices[self.kept]

    def total_selected_edges(self) -> int:
        """Total number of (device, neighbour) selections = total leaves / 2."""
        return int(self._workloads.sum())


def workload_cdf(workloads: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(values, cumulative_probability)`` of the workload CDF (Fig. 7)."""
    workloads = np.asarray(workloads, dtype=np.float64)
    if workloads.size == 0:
        return np.zeros(0), np.zeros(0)
    values = np.sort(workloads)
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities
