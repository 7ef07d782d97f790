"""A constant first-layer input kept factored instead of dense."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .backend import PreparedMatrix, get_backend


def densify(values: sp.csr_matrix, fill) -> np.ndarray:
    """Dense rows of ``values`` with ``fill`` (a scalar, or one value per row)
    instead of zero at the unstored positions."""
    rows = np.empty(values.shape, dtype=np.float64)
    rows[:] = np.reshape(fill, (-1, 1))
    rows[np.repeat(np.arange(values.shape[0]), np.diff(values.indptr)), values.indices] = values.data
    return rows


class SharedRowFeatures:
    """A constant ``(N, d)`` input held as its ``R`` distinct rows, never dense.

    Node ``i`` carries distinct row ``rows[i]`` (``-1``: all zeros).  Distinct
    row ``r`` is ``values[r]`` at its stored positions and the scalar
    ``fill[r]`` everywhere else.  In the union of the Lumos trees every
    centre-leaf replica shares its device's (sparse, fill 0) feature, virtual
    nodes are zero, and an LDP message is the bounds' midpoint (its fill)
    everywhere but at the few released positions.

    A first layer needs ``X W`` and ``Xᵀ g`` only: with ``D`` the sparse
    deviations ``values - fill``, :meth:`project` / :meth:`project_adjoint`
    compute ``(D + fill ⊗ 1ᵀ) W`` and its adjoint on the ``R`` distinct rows,
    and the 0/1 ``(N, R)`` operator :meth:`gather_matrix` spreads a
    projection over the nodes (GAT, through :attr:`gather`) — or is folded
    into the layer's own constant operator (GCN).  This reassociates
    ``X W``, i.e. reorders float additions (tolerance: docs/architecture.md §4).
    """

    requires_grad = False

    def __init__(self, rows: np.ndarray, values: sp.spmatrix, fill: np.ndarray) -> None:
        self.rows = rows
        self.values = sp.csr_matrix(values)
        self.fill = np.asarray(fill, dtype=np.float64)
        self.shape = (rows.shape[0], self.values.shape[1])
        stored = np.repeat(self.fill, np.diff(self.values.indptr))
        self._deviations = PreparedMatrix(
            sp.csr_matrix(
                (self.values.data - stored, self.values.indices, self.values.indptr),
                shape=self.values.shape,
            )
        )
        self._gather = None

    def gather_matrix(self) -> sp.csr_matrix:
        """The 0/1 ``(N, R)`` operator picking each node's distinct row."""
        real = np.flatnonzero(self.rows >= 0)
        return sp.csr_matrix(
            (np.ones(real.shape[0]), (real, self.rows[real])),
            shape=(self.rows.shape[0], self.values.shape[0]),
        )

    @property
    def gather(self) -> PreparedMatrix:
        """:meth:`gather_matrix`, prepared on first use and kept."""
        if self._gather is None:
            self._gather = PreparedMatrix(self.gather_matrix())
        return self._gather

    def project(self, weight: np.ndarray) -> np.ndarray:
        """The distinct rows times ``W``: ``(R, out)``."""
        out = get_backend().spmm(self._deviations, weight)
        out += np.multiply.outer(self.fill, weight.sum(axis=0))
        return out

    def project_adjoint(self, grad: np.ndarray) -> np.ndarray:
        """The distinct rows, transposed, times ``g`` of shape ``(R, out)``: ``(d, out)``."""
        out = get_backend().spmm_t(self._deviations, grad)
        out += self.fill @ grad
        return out
