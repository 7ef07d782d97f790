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

from typing import Dict, Optional, Sequence, Tuple, Union

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

    The edges are stably sorted by destination, the caller's order kept
    within a destination: ``src`` holds their sources in that order and
    ``counts`` every node's in-degree.  A layer with ``H`` heads runs on the
    head-blocked plan that :meth:`blocked` derives from these two arrays on
    first use and keeps here.  Like :class:`PreparedMatrix` the plan is
    structure only, kept by the object that owns the edge index
    (``TreeBatch`` / ``GraphInput``).
    """

    __slots__ = ("num_nodes", "src", "counts", "_blocked")

    def __init__(self, edge_index: np.ndarray, num_nodes: int) -> None:
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        dst = edge_index[1]
        _check_segment_ids(dst, num_nodes)
        self.num_nodes = int(num_nodes)
        self.counts = np.bincount(dst, minlength=num_nodes)
        self.src = edge_index[0][np.argsort(dst, kind="stable")]
        if self.src.size and not 0 <= self.src.min() <= self.src.max() < num_nodes:
            raise IndexError(f"edge source out of range for {num_nodes} nodes")
        self._blocked: Dict[int, HeadBlockedEdges] = {}

    def blocked(self, num_heads: int) -> "HeadBlockedEdges":
        """The plan laid out for ``num_heads`` heads, built once and kept."""
        plan = self._blocked.get(num_heads)
        if plan is None:
            plan = self._blocked[num_heads] = HeadBlockedEdges(self, num_heads)
        return plan


#: Edges per chunk of :meth:`HeadBlockedEdges.sampled_dots`.
_DOT_CHUNK = 1 << 12


class HeadBlockedEdges:
    """A :class:`PreparedEdges` plan laid out for ``H`` attention heads.

    Per-node arrays are node-major: head ``h`` of node ``i`` is row
    ``i·H + h`` of an ``(N·H, F)`` view of the ``(N, H·F)`` array.  Block row
    ``i·H + h`` holds destination ``i``'s edges for head ``h``, in the
    plan's ``src`` order, at columns ``src·H + h``.  ``(indptr, indices)`` is
    thus the CSR structure of the ``(N·H, N·H)`` aggregation matrix whose
    data is one step's attention (:meth:`matrix`): one product aggregates
    every head, and its ``(N·H, F)`` output is the heads' concatenation.
    Read as CSC the same arrays are its transpose.

    Per-edge arrays are ``(E·H,)`` in block order.  Each block is a
    contiguous run holding the values one head's destination run held, in
    the same order, so every reduction adds as it did per head: the
    segment max / sum of the edge softmax are ``ufunc.reduceat`` calls at
    the starts of the non-empty blocks, the source sum is one
    ``np.bincount`` over ``indices``, and the destination side of an edge is
    an ``np.repeat``.  The plan keeps the two index arrays only (and shares
    ``counts`` with the :class:`PreparedEdges` it came from); the runs of the
    non-empty blocks are derived per call.
    """

    __slots__ = ("num_nodes", "num_heads", "counts", "indptr", "indices")

    def __init__(self, edges: PreparedEdges, num_heads: int) -> None:
        counts, heads = edges.counts, int(num_heads)
        self.num_nodes, self.num_heads, self.counts = edges.num_nodes, heads, counts
        rows, size = self.num_nodes * heads, edges.src.shape[0] * heads
        first = np.cumsum(counts) - counts  # each destination's first sorted edge
        indptr = np.empty(rows + 1, dtype=np.int64)
        indptr[:-1] = (heads * first[:, None] + counts[:, None] * np.arange(heads)).ravel()
        indptr[-1] = size
        dst = np.repeat(np.arange(self.num_nodes), counts)  # of each sorted edge
        rank = np.arange(edges.src.shape[0]) - first[dst]  # its place in the run
        indices = np.empty(size, dtype=np.int64)
        for h in range(heads):
            indices[indptr[dst * heads + h] + rank] = edges.src * heads + h
        # Let scipy pick its index dtype once, so the per-step matrices below
        # wrap these arrays without a cast.
        structure = sp.csr_matrix((np.empty(size), indices, indptr), shape=(rows, rows))
        self.indices, self.indptr = structure.indices, structure.indptr

    def matrix(self, attention: np.ndarray) -> sp.csr_matrix:
        """``A[i·H+h, j·H+h]`` = the attention of head ``h`` summed over the
        edges ``j -> i``: the block-diagonal ``(N·H, N·H)`` aggregation."""
        rows = self.num_nodes * self.num_heads
        return sp.csr_matrix((attention, self.indices, self.indptr), shape=(rows, rows))

    def node_matrix(self, attention: np.ndarray) -> sp.csr_matrix:
        """:meth:`matrix` with each destination's ``H`` rows as one row:
        ``(N, N·H)``, the same data read through ``indptr[::H]``."""
        shape = (self.num_nodes, self.num_nodes * self.num_heads)
        return sp.csr_matrix((attention, self.indices, self.indptr[:: self.num_heads]), shape=shape)

    def _runs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The destinations with an edge, and the starts and lengths of
        their blocks in block order."""
        segments = np.flatnonzero(self.counts)
        starts = self.indptr[:-1].reshape(self.num_nodes, self.num_heads)[segments].ravel()
        return segments, starts, np.repeat(self.counts[segments], self.num_heads)

    def expand_rows(self, values: np.ndarray) -> np.ndarray:
        """Each edge's entry of the ``(N·H,)`` per-row ``values``."""
        return np.repeat(values, np.diff(self.indptr))

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum the ``(E·H,)`` edge values per block row into ``(N·H,)``."""
        segments, starts, _ = self._runs()
        out = np.zeros((self.num_nodes, self.num_heads))
        out[segments] = np.add.reduceat(values, starts).reshape(-1, self.num_heads)
        return out.reshape(-1)

    def source_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum the ``(E·H,)`` edge values per column into ``(N·H,)``: each
        bin adds its edges in block order, destination by destination."""
        return np.bincount(self.indices, weights=values, minlength=self.num_nodes * self.num_heads)

    def softmax(self, logits: np.ndarray) -> np.ndarray:
        """Softmax of the ``(E·H,)`` logits over each block, in place."""
        _, starts, lengths = self._runs()
        logits -= np.repeat(np.maximum.reduceat(logits, starts), lengths)
        np.exp(logits, out=logits)
        denominator = np.add.reduceat(logits, starts) + 1e-16
        return np.divide(logits, np.repeat(denominator, lengths), out=logits)

    def softmax_backward(self, attention: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`softmax`, ``a * (g - sum_block(a * g))``, into ``grad``.

        The max shift and the ``1e-16`` guard are constant within a block,
        so both cancel from the adjoint.
        """
        _, starts, lengths = self._runs()
        grad *= attention
        total = np.repeat(np.add.reduceat(grad, starts), lengths)
        total *= attention
        grad -= total
        return grad

    def sampled_dots(self, grads: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``out[p] = grads[row] · values[indices[p]]`` at every position ``p``.

        ``grads`` has a row per block row, ``(N·H, F)``, or one per
        destination that its heads share, ``(N, F)``; ``values`` is
        ``(N·H, F)``.  Both operands are gathered about :data:`_DOT_CHUNK`
        edges at a time, so no ``(E·H, F)`` array exists.
        """
        shared = grads.shape[0] != self.indptr.shape[0] - 1
        ptr = self.indptr[:: self.num_heads] if shared else self.indptr
        out = np.empty(self.indices.shape[0])
        row = 0
        while row < grads.shape[0]:
            stop = int(np.searchsorted(ptr, ptr[row] + _DOT_CHUNK, side="right")) - 1
            stop = max(stop, row + 1)
            low, high = ptr[row], ptr[stop]
            np.einsum(
                "ef,ef->e",
                np.repeat(grads[row:stop], np.diff(ptr[row : stop + 1]), axis=0),
                np.take(values, self.indices[low:high], axis=0),
                out=out[low:high],
            )
            row = stop
        return out


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
