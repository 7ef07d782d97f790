"""Reverse-mode automatic differentiation on top of numpy.

This module provides the :class:`Tensor` class, the computational substrate
for every neural network in this repository.  The paper's system (Lumos) is
originally implemented on PyTorch; since the reproduction environment offers
only numpy/scipy, we re-implement the small slice of an autograd engine that
GCN / GAT training requires:

* broadcasting-aware elementwise arithmetic,
* matrix multiplication (dense and a sparse-constant variant in
  :mod:`repro.nn.functional`),
* gather / scatter-add for edge-wise graph operations,
* the usual nonlinearities, reductions and a numerically stable
  log-softmax, and
* reverse-mode backpropagation over a dynamically recorded DAG.

Design notes
------------
The engine is deliberately eager and dynamic (define-by-run): each operation
returns a new :class:`Tensor` that remembers its parents and a closure that
propagates the output gradient to them.  ``Tensor.backward`` performs a
topological sort of the recorded graph and runs the closures in reverse
order.  Gradients accumulate additively, matching PyTorch semantics, and are
cleared with :meth:`Tensor.zero_grad` (or by the optimizers).  A gradient
buffer has one owner (see :meth:`Tensor._accumulate`), and the sweep releases
every interior node behind it, so a recorded graph backpropagates once.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


class _GradMode:
    """Sets whether operations record the autograd graph, restoring on exit."""

    enabled = True

    def __enter__(self) -> "_GradMode":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = self.enabled
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


class no_grad(_GradMode):
    """Context manager that disables gradient recording.

    Mirrors ``torch.no_grad``: operations executed inside the context do not
    record parents and therefore do not participate in backpropagation.  Used
    for evaluation passes and for constant pre-processing (e.g. subtracting a
    per-segment max inside the edge softmax).
    """

    enabled = False


class enable_grad(_GradMode):
    """Context manager that re-enables gradient recording inside ``no_grad``.

    Mirrors ``torch.enable_grad``: a layer that runs in an evaluation pass
    but keeps its output for the next gradient pass records its node anyway.
    """


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` into a float64 numpy array."""
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


def _sum_rows(matrix: np.ndarray) -> np.ndarray:
    """``matrix.sum(axis=0)``, bit for bit.

    On a C-ordered matrix with several columns ``sum`` adds row after row, and
    so does ``einsum`` in a third of the time (the gradient behind every
    bias).  Along contiguous memory (F order, one column) ``sum`` adds
    pairwise, which ``einsum`` does not reproduce: those stay with ``sum``.
    """
    if matrix.flags.c_contiguous and matrix.shape[1] > 1:
        return np.einsum("ij->j", matrix)
    return matrix.sum(axis=0)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting expands dimensions on the fly during the forward pass; the
    corresponding adjoint operation is a sum over the broadcast axes.  The
    result is ``grad`` itself when the shapes agree and a fresh array
    otherwise.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims == 1 and grad.ndim == 2:
        grad = _sum_rows(grad)
    elif extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released(grad: np.ndarray) -> None:
    """Stands in for the closure of a node an earlier ``backward()`` swept."""
    raise RuntimeError(
        "backward() through a graph that an earlier backward() already swept and "
        "released; run the forward pass again"
    )


class Tensor:
    """A numpy array with an attached gradient and autograd history."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        parents: Tuple["Tensor", ...] = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents = parents if self.requires_grad or parents else ()
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view, not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data, requires_grad=False)
        return Tensor(data, requires_grad=True, parents=parents, backward=backward)

    def _accumulate(self, grad: np.ndarray, donated: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        The buffer is this tensor's alone, so later contributions add into it
        in place.  The first one becomes the buffer without a copy when it is
        already nobody else's: the fresh result of the broadcast reduction, or
        an array the producer ``donated`` — computed for this call, not kept,
        handed to no other tensor.  Closures that pass their incoming gradient
        through (``+``, ``reshape``, ...) give one object to several parents,
        or a view of the child's buffer, and must not donate.

        Because every buffer has one owner, the buffer :meth:`backward` hands a
        closure is its node's alone and dies right after the closure returns:
        the closure may consume it — mask or scale it in place, or donate it
        to a parent — instead of allocating a copy.
        """
        if not self.requires_grad:
            return
        reduced = _unbroadcast(_as_array(grad), self.data.shape)
        if self.grad is not None:
            self.grad += reduced
        elif donated or reduced is not grad:
            self.grad = reduced
        else:
            self.grad = reduced.copy()

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate ``grad`` (default: ones) from this tensor.

        ``grad`` itself is never written: the root's buffer is a copy.  Each
        closure receives its node's gradient buffer, which no other tensor
        references and which is dropped as soon as the closure returns, so
        the closure may overwrite it (see :meth:`_accumulate`).

        Raises
        ------
        RuntimeError
            If called on a tensor that does not require gradients, or if the
            sweep reaches a node that an earlier ``backward()`` released.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only supported "
                    "for scalar tensors"
                )
            grad = np.ones_like(self.data)
        self._accumulate(np.array(grad, dtype=np.float64), donated=True)

        ordered: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordered.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # An interior node is done once its closure ran: its gradient, the
        # closure (and the forward intermediates that captures) and its edges
        # die here instead of with the graph.  Leaves keep their gradients.
        for node in reversed(ordered):
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._parents = ()
            node._backward = _released

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return Tensor._make(out_data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(-grad)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other_t.data)
            other_t._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other_t.data)
            other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            # Only the last two axes participate in the product; leading axes
            # are batch dimensions.  Transposing with swapaxes(-1, -2) keeps
            # batch axes in place (a bare .T would reverse them), and
            # _accumulate's unbroadcast folds gradients over broadcast batch
            # dimensions back onto the operand's shape.
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data) if self.data.ndim == 2 else grad * other_t.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other_t.data, -1, -2))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad))
                else:
                    other_t._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor._make(out_data, (self, other_t), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)

        def backward(grad: np.ndarray) -> None:
            if axes is None:
                self._accumulate(np.transpose(grad))
            else:
                inverse = np.argsort(axes)
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_arr = _as_array(grad)
            if axis is None:
                self._accumulate(np.full_like(self.data, 1.0) * grad_arr)
                return
            if not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis=axis)
            self._accumulate(np.broadcast_to(grad_arr, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction (gradient flows to the arg-max entries)."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad_arr = _as_array(grad)
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * grad_arr)
                return
            expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            g = grad_arr if keepdims else np.expand_dims(grad_arr, axis=axis)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, negative_slope)
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, minimum: float, maximum: float) -> "Tensor":
        out_data = np.clip(self.data, minimum, maximum)
        mask = ((self.data >= minimum) & (self.data <= maximum)).astype(np.float64)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value: Union[Tensor, ArrayLike], requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def zeros(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    """Return a zero-filled tensor."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    """Return a ones-filled tensor."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an existing axis with gradient support."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)
