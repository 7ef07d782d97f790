"""Pluggable compute backends for the nn / gnn kernels.

Every dense/sparse kernel that :mod:`repro.nn.functional` (and through it the
GCN / GAT encoders) relies on is routed through an :class:`OpsBackend`.  The
backend owns exactly the operations whose implementation strategy matters for
performance or hardware portability:

* ``spmm`` / ``spmm_t`` — multiplication by a constant sparse propagation
  matrix (and by its transpose, for the backward pass);
* ``take_rows`` / ``scatter_rows`` — row gather and its duplicate-aware
  adjoint;
* ``segment_sum`` / ``segment_counts`` / ``segment_max`` — unsorted segment
  reductions used by pooling and by the composite GAT edge softmax;
* ``prepare_edges`` — the per-edge-index :class:`PreparedEdges` plan the
  fused GAT layer runs on.

Two backends ship with the repository — one production path and one oracle:

``numpy`` (default)
    Optimised numpy/scipy kernels: the sparse matrix and its transpose are
    prepared once and cached, segment reductions go through a cached CSR
    aggregation matrix or a cached stable sort instead of ``np.add.at`` /
    ``np.maximum.at`` (which are unbuffered and an order of magnitude
    slower), and the GAT edge plan is built once per edge index.  Model-level
    fusion (single-node GCN / GAT /
    pool / loss kernels, propagation folded with mean pooling) engages under
    it.

``reference``
    The straightforward kernels the original implementation used
    (``np.add.at``, per-call transposes), executing the un-fused computation
    graph op for op.  Numerically this is the ground truth the fast kernels
    are tested against.

Use :func:`set_backend` to switch globally or :func:`use_backend` as a
context manager — the ambient backend is the only selector; no config field
names one.  :func:`register_backend` is *the* extension point for an
accelerator backend: implement :class:`OpsBackend` on device tensors and
register a factory under a new name.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Union

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

    @property
    def shape(self):
        return self.csr.shape


MatrixLike = Union[sp.spmatrix, PreparedMatrix]


class SortedRuns:
    """Stable sort of a segment-id array into contiguous runs.

    ``order`` lists the rows segment by segment (original order kept within a
    segment), ``counts[k]`` is the length of segment ``k``, ``segments`` the
    ids of the non-empty ones and ``starts`` where each of those begins in
    ``order`` — the offsets ``ufunc.reduceat`` wants.
    """

    __slots__ = ("order", "counts", "segments", "starts")

    def __init__(self, index: np.ndarray, num_segments: int) -> None:
        self.order = np.argsort(index, kind="stable")
        self.counts = np.bincount(index, minlength=num_segments)  # rejects negative ids
        if self.counts.shape[0] != num_segments:
            raise IndexError(f"segment id out of range for {num_segments} segments")
        self.segments = np.flatnonzero(self.counts)
        self.starts = (np.cumsum(self.counts) - self.counts)[self.segments]


class PreparedEdges(SortedRuns):
    """Structure of a constant ``(2, E)`` edge index, prepared once for GAT.

    The edges are stably sorted by destination (:class:`SortedRuns` over the
    ``dst`` row), so everything the attention layer does per destination is a
    contiguous run: the segment max / sum of the edge softmax are
    ``ufunc.reduceat`` calls, the destination side of an edge is an
    ``np.repeat``, and ``(indptr, indices)`` is the CSR structure of the
    ``N x N`` aggregation matrix whose *data* is one head's attention row of
    the current step (:meth:`attention_matrix`).  Read as CSC the same three
    arrays are its transpose, which is all the backward pass needs.

    Per-edge arrays handed to or returned by the methods are ``(H, E)`` in
    this destination-sorted order (``order`` maps back to the caller's).
    Like :class:`PreparedMatrix` the plan is structure only: it is cached by
    the backend against the edge-index array and never stored on a batch, so
    it enters neither stage fingerprints nor pickles.
    """

    __slots__ = ("num_nodes", "src", "run_lengths", "indices", "indptr")

    def __init__(self, edge_index: np.ndarray, num_nodes: int) -> None:
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        super().__init__(edge_index[1], num_nodes)
        self.num_nodes = int(num_nodes)
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
    num_rows = index.shape[0]
    return sp.csr_matrix(
        (np.ones(num_rows, dtype=np.float64), (index, np.arange(num_rows))),
        shape=(num_segments, num_rows),
    )


class OpsBackend:
    """Interface of a compute backend (the default methods are the reference
    numpy kernels; subclasses override what they can do faster)."""

    name = "abstract"
    #: Whether model-level fast paths (fused pooling matrices, reuse of
    #: constant-input layer outputs across forward passes) may be taken while
    #: this backend is active.  The reference backend keeps it off so that it
    #: executes the un-fused computation graph op for op.
    allow_fused = True

    # ------------------------------------------------------------------ #
    # Sparse matmul
    # ------------------------------------------------------------------ #
    def prepare_matrix(self, matrix: MatrixLike) -> MatrixLike:
        """Pre-process a constant sparse matrix for repeated products."""
        return matrix

    def spmm(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix @ dense`` for a constant sparse ``matrix``."""
        csr = matrix.csr if isinstance(matrix, PreparedMatrix) else matrix.tocsr()
        return csr @ dense

    def spmm_t(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        """``matrix.T @ dense`` (the adjoint of :meth:`spmm`)."""
        if isinstance(matrix, PreparedMatrix):
            return matrix.csr_t @ dense
        return matrix.tocsr().T.tocsr() @ dense

    def fold_chain(self, matrices: Sequence[MatrixLike]) -> MatrixLike:
        """Collapse a chain of constant sparse operators into one operator.

        ``fold_chain([A, B, C])`` returns an operator equal to ``A @ B @ C``
        in a representation the backend's :meth:`spmm` accepts.  The chain
        members must all be constants (no gradients flow into them), which
        is exactly the situation for propagation matrices:
        the mean-pool matrix composed with the normalised tree adjacency can
        be precomputed once per tree batch and reused for every epoch and
        every sweep point that shares the construction.
        """
        if not matrices:
            raise ValueError("fold_chain requires at least one matrix")
        product: Optional[sp.csr_matrix] = None
        for matrix in matrices:
            csr = matrix.csr if isinstance(matrix, PreparedMatrix) else sp.csr_matrix(matrix)
            product = csr if product is None else product @ csr
        return self.prepare_matrix(product)

    # ------------------------------------------------------------------ #
    # Row gather / scatter
    # ------------------------------------------------------------------ #
    def take_rows(self, data: np.ndarray, index: np.ndarray) -> np.ndarray:
        """``data[index]`` along the first axis."""
        return data[index]

    def scatter_rows(self, values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
        """Adjoint of :meth:`take_rows`: ``out[index[i]] += values[i]``."""
        out = np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
        np.add.at(out, index, values)
        return out

    # ------------------------------------------------------------------ #
    # Segment reductions (unsorted segment ids along the first axis)
    # ------------------------------------------------------------------ #
    def segment_sum(self, values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
        """``out[k] = sum_{i: index[i] == k} values[i]``."""
        return self.scatter_rows(values, index, num_segments)

    def segment_counts(self, index: np.ndarray, num_segments: int) -> np.ndarray:
        """Number of rows per segment, as float64."""
        counts = np.zeros(num_segments, dtype=np.float64)
        np.add.at(counts, index, 1.0)
        return counts

    def segment_max(self, values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
        """Per-segment elementwise maximum (``-inf`` for empty segments)."""
        out = np.full((num_segments,) + values.shape[1:], -np.inf)
        np.maximum.at(out, index, values)
        return out

    # ------------------------------------------------------------------ #
    # GAT edge plan
    # ------------------------------------------------------------------ #
    def prepare_edges(self, edge_index: np.ndarray, num_nodes: int) -> PreparedEdges:
        """Pre-process a constant ``(2, E)`` edge index for the fused GAT layer."""
        return PreparedEdges(edge_index, num_nodes)


class ReferenceBackend(OpsBackend):
    """The seed implementation's kernels, kept verbatim as numerical ground
    truth (per-call transposes, unbuffered ``np.add.at`` accumulation)."""

    name = "reference"
    allow_fused = False


class FastNumpyBackend(OpsBackend):
    """Optimised numpy/scipy kernels (the default backend).

    Two caches make the hot paths cheap:

    * :meth:`prepare_matrix` converts a propagation matrix to CSR **once**
      and also stores its transpose, so the backward pass never re-transposes
      (the seed code paid an O(nnz) transpose per backward call);
    * per distinct index array, segment sums build a CSR aggregation matrix
      and segment maxima a stable sort (:class:`SortedRuns`) once and reuse
      them, replacing ``np.add.at`` / ``np.maximum.at`` (unbuffered, slow)
      with the C-optimised sparse matmul and ``reduceat``;
      :meth:`prepare_edges` keeps the GAT plan of an edge index the same way.

    Both caches key on ``id()`` of the input object guarded by a weak
    reference, so entries die with the arrays they describe; an index that is
    a view (a row of an edge index) is keyed on the array owning its memory,
    because the view object itself does not survive the call.  Index arrays
    must therefore not be mutated in place after first use — which holds for
    every caller in this repository (graph structure is constant during
    training).
    """

    name = "numpy"

    def __init__(self) -> None:
        self._matrix_cache = IdentityCache()
        self._segment_cache = IdentityCache()

    # -- sparse matmul -------------------------------------------------- #
    def prepare_matrix(self, matrix: MatrixLike) -> PreparedMatrix:
        if isinstance(matrix, PreparedMatrix):
            return matrix
        prepared = self._matrix_cache.get(matrix)
        if prepared is None:
            prepared = self._matrix_cache.put(matrix, PreparedMatrix(matrix))
        return prepared

    def spmm(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        return self.prepare_matrix(matrix).csr @ dense

    def spmm_t(self, matrix: MatrixLike, dense: np.ndarray) -> np.ndarray:
        return self.prepare_matrix(matrix).csr_t @ dense

    # -- segment reductions --------------------------------------------- #
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

    def scatter_rows(self, values: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
        if values.size == 0:
            return np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
        matrix = self._per_index(index, num_rows, _aggregation_matrix)
        if values.ndim <= 2:
            return np.asarray(matrix @ values, dtype=np.float64)
        flat = values.reshape(values.shape[0], -1)
        out = matrix @ flat
        return np.asarray(out, dtype=np.float64).reshape((num_rows,) + values.shape[1:])

    def segment_counts(self, index: np.ndarray, num_segments: int) -> np.ndarray:
        return np.bincount(index, minlength=num_segments).astype(np.float64)

    def segment_max(self, values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
        out = np.full((num_segments,) + values.shape[1:], -np.inf)
        if index.shape[0]:
            runs = self._per_index(index, num_segments, SortedRuns)
            out[runs.segments] = np.maximum.reduceat(values[runs.order], runs.starts, axis=0)
        return out

    def prepare_edges(self, edge_index: np.ndarray, num_nodes: int) -> PreparedEdges:
        return self._per_index(edge_index, num_nodes, PreparedEdges)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], OpsBackend]] = {
    "numpy": FastNumpyBackend,
    "reference": ReferenceBackend,
}
_instances: Dict[str, OpsBackend] = {}
_active: Optional[OpsBackend] = None


def register_backend(name: str, factory: Callable[[], OpsBackend]) -> None:
    """Install a backend factory under ``name`` (e.g. a torch/GPU backend)."""
    _FACTORIES[name] = factory
    _instances.pop(name, None)


def available_backends() -> list:
    """Names of all registered backends."""
    return sorted(_FACTORIES)


def _instantiate(name: str) -> OpsBackend:
    if name not in _FACTORIES:
        raise KeyError(f"unknown backend '{name}'; available: {available_backends()}")
    if name not in _instances:
        _instances[name] = _FACTORIES[name]()
    return _instances[name]


def get_backend() -> OpsBackend:
    """Return the active compute backend (default: the fast numpy backend)."""
    global _active
    if _active is None:
        _active = _instantiate("numpy")
    return _active


def set_backend(backend: Union[str, OpsBackend]) -> OpsBackend:
    """Switch the active backend globally; returns the new active backend."""
    global _active
    _active = _instantiate(backend) if isinstance(backend, str) else backend
    return _active


@contextmanager
def use_backend(backend: Union[str, OpsBackend]) -> Iterator[OpsBackend]:
    """Context manager that temporarily switches the active backend.

    The previous backend is restored on *every* exit path — including an
    exception raised by the body or by the switch itself — so a failing
    sweep point can never leak its backend into the next one.
    """
    global _active
    previous = get_backend()
    try:
        yield set_backend(backend)
    finally:
        _active = previous

