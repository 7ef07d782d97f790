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
    and ``gather`` (0/1, ``(N, R)``) spreads a projection over the nodes — or
    is folded into the layer's own constant operator (GCN).  This reassociates
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
        real = np.flatnonzero(rows >= 0)
        self.gather = sp.csr_matrix(
            (np.ones(real.shape[0]), (real, rows[real])),
            shape=(rows.shape[0], self.values.shape[0]),
        )

    def dense(self) -> np.ndarray:
        """The ``(N, d)`` matrix itself (tests, and an un-fused backend's oracle)."""
        zero_row = np.zeros((1, self.shape[1]))  # what rows == -1 picks
        return np.vstack([densify(self.values, self.fill), zero_row])[self.rows]

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
