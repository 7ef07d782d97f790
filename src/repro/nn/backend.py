"""The compute backend for the nn / gnn kernels.

Every dense/sparse kernel that :mod:`repro.nn.functional` (and through it the
GCN / GAT encoders) relies on is a method of the one
:class:`FastNumpyBackend` that :func:`get_backend` returns.  It owns exactly
the operations whose implementation strategy matters for performance:

* ``spmm`` / ``spmm_t`` — multiplication by a constant sparse propagation
  matrix (and by its transpose, for the backward pass);
* ``take_rows`` / ``scatter_rows`` — row gather and its duplicate-aware
  adjoint, through the gather's 0/1 ``row_selection`` operator;
* ``fold_chain`` — a chain of constant operators collapsed into one.

The kernels keep no state.  What is worth preparing once — a sparse matrix
in CSR form (:class:`PreparedMatrix`), the GAT plan of an edge index
(:class:`PreparedEdges`) — is prepared by the object that owns the structure
(the tree batch, a ``GraphInput``, a factored layer input, the
link-prediction objective's positive pairs) and kept for as long as that
object lives.  No transpose is ever stored: the adjoint multiplies by the
CSC view ``csr.T``, which shares the CSR's arrays.  The gather adjoint runs
through the selection operator instead of ``np.add.at`` (which is unbuffered
and an order of magnitude slower).  The ``np.add.at`` kernels and the
composite (un-fused) layer graphs are the oracles in
``tests/helpers/oracles.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp


class PreparedMatrix:
    """A constant sparse matrix pre-converted to CSR, stored once.

    A CSR input is kept as is.  The transpose the backward pass multiplies
    by is the CSC view ``csr.T`` over the same three arrays, never a copy:
    scipy's ``csc_matvecs`` adds each output row's contributions in
    ascending source row, the order in which ``csr_matvecs`` reads the
    canonical ``csr.T.tocsr()``, so the product has the same bits
    (``tests/test_nn_backend.py`` pins it against that oracle).
    """

    __slots__ = ("csr",)

    def __init__(self, matrix: sp.spmatrix) -> None:
        self.csr = matrix.tocsr()


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
    Like :class:`PreparedMatrix` the plan is structure only, kept by the
    object that owns the edge index (``TreeBatch`` / ``GraphInput``).
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


def _selection_matrix(index: np.ndarray, num_rows: int) -> sp.csr_matrix:
    """The 0/1 ``(len(index), num_rows)`` operator ``S`` with
    ``S @ data == data[index]``; ``S.T`` sums rows per segment.

    Row ``i`` holds its one entry at column ``index[i]``, so the CSR is
    written down directly, without a sort.
    """
    index = np.asarray(index, dtype=np.int64)
    _check_segment_ids(index, num_rows)
    size = index.shape[0]
    return sp.csr_matrix(
        (np.ones(size, dtype=np.float64), index, np.arange(size + 1)), shape=(size, num_rows)
    )


class FastNumpyBackend:
    """Optimised numpy/scipy kernels, without state.

    A product with a :class:`PreparedMatrix` reads its CSR form, and the
    adjoint its CSC view, so the backward pass never transposes; a raw
    sparse matrix is prepared per call.  The gather adjoint multiplies by
    the transpose of the gather's selection operator, built per call unless
    the caller prepared it once (:meth:`row_selection`), which still beats
    ``np.add.at``.
    """

    # -- sparse matmul -------------------------------------------------- #
    def prepare_matrix(self, matrix: MatrixLike) -> PreparedMatrix:
        """Pre-process a constant sparse matrix for repeated products."""
        return matrix if isinstance(matrix, PreparedMatrix) else PreparedMatrix(matrix)

    def spmm(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix @ dense`` for a constant sparse ``matrix``."""
        return self.prepare_matrix(matrix).csr @ dense

    def spmm_t(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix.T @ dense`` (the adjoint of :meth:`spmm`), through the CSC view."""
        return self.prepare_matrix(matrix).csr.T @ dense

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
    def row_selection(self, index: np.ndarray, num_rows: int) -> PreparedMatrix:
        """:func:`_selection_matrix`, prepared for an index that stays constant."""
        return PreparedMatrix(_selection_matrix(index, num_rows))

    def take_rows(self, data: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``data[index]`` along the first axis."""
        return data[index]

    def scatter_rows(
        self, values: np.ndarray, index: Union[np.ndarray, PreparedMatrix], num_rows: int
    ) -> np.ndarray:
        """Adjoint of :meth:`take_rows`: ``out[index[i]] += values[i]``.

        ``index`` may be its :meth:`row_selection`, prepared once.  Each
        output row adds its values in ascending ``i``.
        """
        if values.size == 0:
            return np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
        selection = (
            index.csr if isinstance(index, PreparedMatrix) else _selection_matrix(index, num_rows)
        )
        if values.ndim <= 2:
            return np.asarray(selection.T @ values, dtype=np.float64)
        flat = values.reshape(values.shape[0], -1)
        out = selection.T @ flat
        return np.asarray(out, dtype=np.float64).reshape((num_rows,) + values.shape[1:])


_BACKEND = FastNumpyBackend()


def get_backend() -> FastNumpyBackend:
    """The compute backend every kernel runs on (one per process)."""
    return _BACKEND
