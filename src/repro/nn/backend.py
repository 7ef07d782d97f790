"""The compute backend for the nn / gnn kernels.

Every dense/sparse kernel that :mod:`repro.nn.functional` (and through it the
GCN / GAT encoders) relies on is a method of the one
:class:`FastNumpyBackend` that :func:`get_backend` returns.  It owns exactly
the operations whose implementation strategy matters for performance:

* ``spmm`` / ``spmm_t`` — multiplication by a constant sparse propagation
  matrix (and by its transpose, for the backward pass);
* ``take_rows`` / ``scatter_rows`` — row gather and its duplicate-aware
  adjoint;
* ``prepare_edges`` — the per-edge-index :class:`PreparedEdges` plan the
  fused GAT layer runs on.

The sparse matrix and its transpose are prepared once and cached, the
gather adjoint goes through a cached CSR aggregation matrix instead of
``np.add.at`` (which is unbuffered and an order of magnitude slower), and the
GAT edge plan, whose segment reductions run on a cached stable sort, is built
once per edge index.  The ``np.add.at`` kernels and the composite (un-fused) layer graphs
are the oracles in ``tests/helpers/oracles.py``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from ..caching import IdentityCache


class PreparedMatrix:
    """A constant sparse matrix pre-converted to CSR with a cached transpose."""

    __slots__ = ("csr", "csr_t", "__weakref__")

    def __init__(self, matrix: sp.spmatrix) -> None:
        csr = matrix.tocsr()
        if csr is matrix:
            # The backend caches this object against ``matrix``: share the
            # arrays, not the object (see the rule in repro.caching).
            csr = sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
        self.csr = csr
        self.csr_t = csr.T.tocsr()


MatrixLike = Union[sp.spmatrix, PreparedMatrix]


def _check_segment_ids(index: np.ndarray, num_segments: int) -> None:
    if index.size and not 0 <= index.min() <= index.max() < num_segments:
        raise IndexError(f"segment id out of range for {num_segments} segments")


class PreparedEdges:
    """Structure of a constant ``(2, E)`` edge index, prepared once for GAT.

    The edges are stably sorted by destination (``order``, original order
    kept within a destination), so everything the attention layer does per
    destination is a contiguous run: the segment max / sum of the edge
    softmax are ``ufunc.reduceat`` calls at ``starts`` (where the run of each
    node in ``segments``, those with an incoming edge, begins), the
    destination side of an edge is an ``np.repeat``, and ``(indptr,
    indices)`` is the CSR structure of the ``N x N`` aggregation matrix whose
    *data* is one head's attention row of the current step
    (:meth:`attention_matrix`).  Read as CSC the same three arrays are its
    transpose, which is all the backward pass needs.

    Per-edge arrays handed to or returned by the methods are ``(H, E)`` in
    this destination-sorted order (``order`` maps back to the caller's).
    Like :class:`PreparedMatrix` the plan is structure only: it is cached by
    the backend against the edge-index array and never stored on a batch, so
    it enters neither stage fingerprints nor pickles.
    """

    __slots__ = (
        "num_nodes", "order", "counts", "segments", "starts", "src", "run_lengths",
        "indices", "indptr",
    )

    def __init__(self, edge_index: np.ndarray, num_nodes: int) -> None:
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        dst = edge_index[1]
        _check_segment_ids(dst, num_nodes)
        self.num_nodes = int(num_nodes)
        self.order = np.argsort(dst, kind="stable")
        self.counts = np.bincount(dst, minlength=num_nodes)
        self.segments = np.flatnonzero(self.counts)
        self.starts = (np.cumsum(self.counts) - self.counts)[self.segments]
        self.run_lengths = self.counts[self.segments]
        self.src = edge_index[0][self.order]
        if self.src.size and not 0 <= self.src.min() <= self.src.max() < num_nodes:
            raise IndexError(f"edge source out of range for {num_nodes} nodes")
        # Let scipy pick its index dtype once, so the per-step matrices below
        # wrap these arrays without a cast.
        structure = sp.csr_matrix(
            (np.zeros(self.src.shape[0]), self.src, np.append(0, np.cumsum(self.counts))),
            shape=(num_nodes, num_nodes),
        )
        self.indices, self.indptr = structure.indices, structure.indptr

    def attention_matrix(self, attention: np.ndarray) -> sp.csr_matrix:
        """``A[i, j] = sum of attention over the edges j -> i`` (one head)."""
        return sp.csr_matrix(
            (attention, self.indices, self.indptr), shape=(self.num_nodes, self.num_nodes)
        )

    def _reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        return ufunc.reduceat(values, self.starts, axis=-1)

    def _expand(self, per_run: np.ndarray) -> np.ndarray:
        return np.repeat(per_run, self.run_lengths, axis=-1)

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum ``(..., E)`` edge values per destination into ``(..., N)``."""
        out = np.zeros(values.shape[:-1] + (self.num_nodes,), dtype=np.float64)
        out[..., self.segments] = self._reduce(np.add, values)
        return out

    def softmax(self, logits: np.ndarray) -> np.ndarray:
        """Softmax of ``(..., E)`` logits over the incoming edges of each node."""
        shifted = logits - self._expand(self._reduce(np.maximum, logits))
        exp_values = np.exp(shifted, out=shifted)
        denominator = self._reduce(np.add, exp_values) + 1e-16
        return np.divide(exp_values, self._expand(denominator), out=exp_values)

    def softmax_backward(self, attention: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`softmax`: ``a * (g - sum_segment(a * g))``.

        The max shift and the ``1e-16`` guard are constant within a segment,
        so both cancel from the adjoint.
        """
        weighted = attention * grad
        return weighted - attention * self._expand(self._reduce(np.add, weighted))


def _aggregation_matrix(index: np.ndarray, num_segments: int) -> sp.csr_matrix:
    """``(num_segments, len(index))`` 0/1 matrix whose product sums rows per segment."""
    _check_segment_ids(index, num_segments)
    num_rows = index.shape[0]
    return sp.csr_matrix(
        (np.ones(num_rows, dtype=np.float64), (index, np.arange(num_rows))),
        shape=(num_segments, num_rows),
    )


class FastNumpyBackend:
    """Optimised numpy/scipy kernels.

    Two caches make the hot paths cheap:

    * :meth:`prepare_matrix` converts a propagation matrix to CSR **once**
      and also stores its transpose, so the backward pass never re-transposes
      (the seed code paid an O(nnz) transpose per backward call);
    * per distinct index array, the gather adjoint builds a CSR aggregation
      matrix once and reuses it, replacing ``np.add.at`` (unbuffered, slow)
      with the C-optimised sparse matmul; :meth:`prepare_edges` keeps the
      GAT plan of an edge index (a stable sort by destination, whose runs
      its ``reduceat`` calls read) the same way.

    Both caches key on ``id()`` of the input object guarded by a weak
    reference, so entries die with the arrays they describe; an index that is
    a view (a row of an edge index) is keyed on the array owning its memory,
    because the view object itself does not survive the call.  Index arrays
    must therefore not be mutated in place after first use — which holds for
    every caller in this repository (graph structure is constant during
    training).
    """

    def __init__(self) -> None:
        self._matrix_cache = IdentityCache()
        self._segment_cache = IdentityCache()

    # -- per-index caches ----------------------------------------------- #
    def _per_index(self, index: np.ndarray, size: int, build: Callable):
        """``build(index, size)``, cached against the memory ``index`` reads."""
        anchor, key = index, (build, int(size))
        if isinstance(index.base, np.ndarray):
            anchor = index.base
            key += (index.__array_interface__["data"][0], index.shape, index.strides)
        value = self._segment_cache.get(anchor, extra=key)
        if value is None:
            value = self._segment_cache.put(anchor, build(index, int(size)), extra=key)
        return value

    # -- sparse matmul -------------------------------------------------- #
    def prepare_matrix(self, matrix: MatrixLike) -> PreparedMatrix:
        """Pre-process a constant sparse matrix for repeated products."""
        if isinstance(matrix, PreparedMatrix):
            return matrix
        prepared = self._matrix_cache.get(matrix)
        if prepared is None:
            prepared = self._matrix_cache.put(matrix, PreparedMatrix(matrix))
        return prepared

    def spmm(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix @ dense`` for a constant sparse ``matrix``."""
        return self.prepare_matrix(matrix).csr @ dense

    def spmm_t(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix.T @ dense`` (the adjoint of :meth:`spmm`)."""
        return self.prepare_matrix(matrix).csr_t @ dense

    def fold_chain(self, matrices: Sequence[MatrixLike]) -> PreparedMatrix:
        """Collapse a chain of constant sparse operators into one operator.

        ``fold_chain([A, B, C])`` returns an operator equal to ``A @ B @ C``
        that :meth:`spmm` accepts.  The chain members must all be constants
        (no gradients flow into them), which is exactly the situation for
        propagation matrices: the mean-pool matrix composed with the
        normalised tree adjacency can be precomputed once per tree batch and
        reused for every epoch and every sweep point that shares the
        construction.
        """
        if not matrices:
            raise ValueError("fold_chain requires at least one matrix")
        product: Optional[sp.csr_matrix] = None
        for matrix in matrices:
            csr = matrix.csr if isinstance(matrix, PreparedMatrix) else sp.csr_matrix(matrix)
            product = csr if product is None else product @ csr
        return self.prepare_matrix(product)

    # -- row gather / scatter ------------------------------------------- #
    def take_rows(self, data: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``data[index]`` along the first axis."""
        return data[index]

    def scatter_rows(self, values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
        """Adjoint of :meth:`take_rows`: ``out[index[i]] += values[i]``."""
        if values.size == 0:
            return np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
        matrix = self._per_index(index, num_rows, _aggregation_matrix)
        if values.ndim <= 2:
            return np.asarray(matrix @ values, dtype=np.float64)
        flat = values.reshape(values.shape[0], -1)
        out = matrix @ flat
        return np.asarray(out, dtype=np.float64).reshape((num_rows,) + values.shape[1:])

    # -- GAT edge plan -------------------------------------------------- #
    def prepare_edges(self, edge_index: np.ndarray, num_nodes: int) -> PreparedEdges:
        """The :class:`PreparedEdges` plan of a constant ``(2, E)`` edge index."""
        return self._per_index(edge_index, num_nodes, PreparedEdges)


_BACKEND = FastNumpyBackend()


def get_backend() -> FastNumpyBackend:
    """The compute backend every kernel runs on (one per process)."""
    return _BACKEND
