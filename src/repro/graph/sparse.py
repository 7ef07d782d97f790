"""Sparse adjacency normalisation helpers for GCN-style propagation."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def add_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` in CSR format."""
    n = adjacency.shape[0]
    return (adjacency + sp.eye(n, format="csr")).tocsr()


def symmetric_normalize(adjacency: sp.spmatrix, self_loops: bool = True) -> sp.csr_matrix:
    """Return the symmetrically normalised adjacency ``D^-1/2 Â D^-1/2``.

    This is the propagation matrix of Kipf & Welling's GCN.  Isolated nodes
    (zero degree even after self loops are disabled) get a zero row rather
    than a division-by-zero.
    """
    matrix = adjacency.tocsr().astype(np.float64)
    if self_loops:
        matrix = add_self_loops(matrix)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    d_inv_sqrt = sp.diags(inv_sqrt)
    return (d_inv_sqrt @ matrix @ d_inv_sqrt).tocsr()


def row_normalize(adjacency: sp.spmatrix, self_loops: bool = False) -> sp.csr_matrix:
    """Return the row-stochastic adjacency ``D^-1 A`` (mean aggregation)."""
    matrix = adjacency.tocsr().astype(np.float64)
    if self_loops:
        matrix = add_self_loops(matrix)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return (sp.diags(inv) @ matrix).tocsr()

