"""Unit and property-based tests for the autograd Tensor (and the ops only
the composite oracles record, ``helpers.autograd``)."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gnn.gat import GATLayer
from repro.gnn.gcn import GCNLayer
from repro.nn import functional as F
from repro.nn.backend import PreparedEdges, PreparedMatrix
from repro.nn.tensor import (
    Tensor,
    _as_array,
    _unbroadcast,
    enable_grad,
    is_grad_enabled,
    no_grad,
)

from helpers.autograd import div, leaky_relu, relu, reshape, sub


def numerical_gradient(function, value: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference numerical gradient of a scalar-valued function."""
    gradient = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(value.copy())
        flat[index] = original - epsilon
        lower = function(value.copy())
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return gradient


small_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=4),
    elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)


class TestTensorBasics:
    def test_construction_from_list(self):
        tensor = Tensor([1.0, 2.0, 3.0])
        assert tensor.shape == (3,)
        assert tensor.data.dtype == np.float64

    def test_requires_grad_flag(self):
        tensor = Tensor([1.0], requires_grad=True)
        assert tensor.requires_grad
        assert Tensor([1.0]).requires_grad is False

    def test_detach_breaks_graph(self):
        tensor = Tensor([2.0], requires_grad=True)
        detached = tensor.detach()
        assert not detached.requires_grad

    def test_item_on_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_zero_grad_clears_gradient(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        (tensor.sum()).backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            tensor.backward()


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_add_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a + 5.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 5.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([7.0], requires_grad=True)
        sub(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])
        c = Tensor([3.0], requires_grad=True)
        (-c).sum().backward()
        np.testing.assert_allclose(c.grad, [-1.0])
        np.testing.assert_allclose(sub(1.0, Tensor([0.25])).data, [0.75])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        div(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.5])
        np.testing.assert_allclose(b.grad, [-1.5])
        np.testing.assert_allclose(div(1.0, Tensor([4.0])).data, [0.25])

    def test_matmul_backward(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        b = Tensor(np.array([[5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((2, 2)))

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        (a + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, [3.0, 3.0])
        np.testing.assert_allclose(a.grad, np.ones((3, 2)))

    def test_broadcast_mul_row_vector(self):
        a = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        scale = Tensor(np.array([[2.0, 3.0]]), requires_grad=True)
        (a * scale).sum().backward()
        np.testing.assert_allclose(scale.grad, [[0 + 2 + 4, 1 + 3 + 5]])

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        out = (a * 2.0).sum() + (a * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [5.0])


class TestShapesAndReductions:
    def test_reshape_backward(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        reshape(a, 2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_gradient_scaling(self):
        a = Tensor(np.ones((4,)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        a.mean(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 1 / 3))



class TestNonlinearities:
    @pytest.mark.parametrize("op", [relu, Tensor.exp], ids=["relu", "exp"])
    def test_elementwise_gradients_match_numerical(self, op):
        rng = np.random.default_rng(0)
        value = rng.normal(size=(3, 2))
        tensor = Tensor(value.copy(), requires_grad=True)
        op(tensor).sum().backward()

        def scalar_function(x):
            return op(Tensor(x)).sum().item()

        expected = numerical_gradient(scalar_function, value.copy())
        np.testing.assert_allclose(tensor.grad, expected, atol=1e-4)

    def test_log_gradient(self):
        value = np.array([0.5, 1.5, 2.5])
        tensor = Tensor(value.copy(), requires_grad=True)
        tensor.log().sum().backward()
        np.testing.assert_allclose(tensor.grad, 1.0 / value)

    def test_leaky_relu(self):
        tensor = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        out = leaky_relu(tensor, 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.1, 1.0])

    def test_clip_gradient_masks_out_of_range(self):
        tensor = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        tensor.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(tensor.grad, [0.0, 1.0, 0.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        tensor = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = tensor * 2.0
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        with no_grad():
            pass
        tensor = Tensor([1.0], requires_grad=True)
        assert (tensor * 1.0).requires_grad

    def test_enable_grad_records_inside_no_grad_and_restores_it(self):
        tensor = Tensor([1.0], requires_grad=True)
        with no_grad():
            with enable_grad():
                out = tensor * 2.0
            assert not is_grad_enabled()
        assert out.requires_grad
        out.backward(np.ones(1))
        np.testing.assert_array_equal(tensor.grad, [2.0])


class TestPropertyBased:
    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_sum_matches_numpy(self, array):
        assert Tensor(array).sum().item() == pytest.approx(array.sum(), rel=1e-9, abs=1e-9)

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_add_is_commutative(self, array):
        a = Tensor(array)
        b = Tensor(array * 0.5 + 1.0)
        np.testing.assert_allclose((a + b).data, (b + a).data)

    @given(small_arrays)
    @settings(max_examples=40, deadline=None)
    def test_relu_is_idempotent(self, array):
        once = relu(Tensor(array)).data
        twice = relu(Tensor(once)).data
        np.testing.assert_allclose(once, twice)

    @given(small_arrays)
    @settings(max_examples=30, deadline=None)
    def test_sum_gradient_is_all_ones(self, array):
        tensor = Tensor(array, requires_grad=True)
        tensor.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.ones_like(array))

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
            elements=st.floats(-2, 2, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matmul_gradient_matches_numerical(self, array):
        weight = np.linspace(-1, 1, array.shape[1] * 2).reshape(array.shape[1], 2)
        tensor = Tensor(array.copy(), requires_grad=True)
        (tensor @ Tensor(weight)).sum().backward()

        def scalar_function(x):
            return (Tensor(x) @ Tensor(weight)).sum().item()

        expected = numerical_gradient(scalar_function, array.copy())
        np.testing.assert_allclose(tensor.grad, expected, atol=1e-4)


# --------------------------------------------------------------------------- #
# Gradient ownership: donated not copied, added in place, released early
# --------------------------------------------------------------------------- #
def _copying_accumulate(self, grad, donated=False):
    """``Tensor._accumulate`` before gradients were donated: copy the first
    contribution, allocate a new sum for every later one, own nothing."""
    if not self.requires_grad:
        return
    grad = _unbroadcast(_as_array(grad), self.data.shape)
    self.grad = grad.copy() if self.grad is None else self.grad + grad


def _diamond(rng, rows, cols, broadcast):
    a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    b = Tensor(rng.standard_normal((cols,) if broadcast else (rows, cols)), requires_grad=True)
    y = a + b  # hands one gradient object to both parents
    square = y * y
    out = (square + y).sum()
    out.backward()
    return [a, b], [y, square, out]


def _two_fused_consumers(rng, rows, cols, broadcast):
    x = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    weight = Tensor(rng.standard_normal((cols, 3)), requires_grad=True)
    bias = Tensor(rng.standard_normal(3), requires_grad=True)
    matrix = sp.csr_matrix(rng.random((rows, rows)) < 0.5, dtype=np.float64)
    index = rng.integers(rows, size=2 * rows)
    hidden = x * 2.0  # interior: both of its consumers donate
    dropped = F.dropout(hidden, 0.5, True, rng)
    pooled = F.fused_pool_head(hidden, matrix, weight, bias if broadcast else None)
    # ... and so do two consumers of the leaf itself.
    gathered = F.gather(x, index)
    propagated = F.sparse_matmul(matrix, x)
    out = dropped.sum() + pooled.sum() + (gathered * gathered).sum() + propagated.sum()
    out.backward()
    return [x, weight, bias], [hidden, dropped, pooled, gathered, propagated, out]


def _two_rounds_without_zero_grad(rng, rows, cols, broadcast):
    a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    b = Tensor(rng.standard_normal((cols,) if broadcast else (rows, cols)), requires_grad=True)
    interior = []
    for scale in (1.0, -0.5):
        y = a * b + a
        out = (F.dropout(y, 0.5, True, rng) * scale).sum()
        out.backward()
        interior += [y, out]
    return [a, b], interior


def _masked_layers(rng, rows, cols, broadcast):
    """The four adjoints that mask their incoming gradient in place: a fused
    GCN and a fused GAT layer with ``relu``, a constant-input ``GCNLayer``
    with ``relu`` and ``F.dropout`` — as ``(x, forwards, leaves)``."""
    x = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    matrix = PreparedMatrix(sp.csr_matrix(rng.random((rows, rows)) < 0.5, dtype=np.float64))
    loops = np.tile(np.arange(rows), (2, 1))
    edges = PreparedEdges(
        np.concatenate([rng.integers(rows, size=(2, 2 * rows)), loops], axis=1), rows
    )
    gcn = GCNLayer(cols, 3, bias=broadcast, rng=rng)
    gat = GATLayer(cols, 2, num_heads=2, concat_heads=broadcast, rng=rng)
    constant = GCNLayer(cols, 3, rng=rng)
    for layer in (gcn, gat, constant):
        if layer.bias is not None:  # so that relu keeps some entries and drops others
            layer.bias.data = rng.standard_normal(layer.bias.data.shape)
    forwards = [
        lambda features: gcn(features, matrix, activation="relu"),
        lambda features: gat(features, edges, activation="relu"),
        lambda features: constant(Tensor(features.data), matrix, activation="relu"),
        lambda features: F.dropout(features, 0.5, True, rng),
    ]
    leaves = [x, *gcn.parameters(), *gat.parameters(), *constant.parameters()]
    return x, forwards, leaves


def _masked_mid_graph(rng, rows, cols, broadcast):
    x, forwards, leaves = _masked_layers(rng, rows, cols, broadcast)
    hidden = x * 2.0
    masked = [forward(hidden) for forward in forwards]
    # Each masked output has two consumers, so its buffer sums two
    # contributions before its adjoint masks it.
    out = sum(((node * node).sum() + node.sum() for node in masked), Tensor(0.0))
    out.backward()
    return leaves, [hidden, *masked, out]


def _masked_roots(rng, rows, cols, broadcast):
    x, forwards, leaves = _masked_layers(rng, rows, cols, broadcast)
    roots = [forward(x) for forward in forwards]
    for root in roots:
        root.backward(rng.standard_normal(root.shape))
    return leaves, roots


_SCENARIOS = [
    _diamond,
    _two_fused_consumers,
    _two_rounds_without_zero_grad,
    _masked_mid_graph,
    _masked_roots,
]


def _check_ownership(scenario, rows, cols, broadcast, seed):
    with mock.patch.object(Tensor, "_accumulate", _copying_accumulate):
        copied_leaves, copied_interior = scenario(
            np.random.default_rng(seed), rows, cols, broadcast
        )
    leaves, interior = scenario(np.random.default_rng(seed), rows, cols, broadcast)
    for leaf, copied in zip(leaves, copied_leaves):
        if copied.grad is None:
            assert leaf.grad is None
        else:
            assert leaf.grad.tobytes() == copied.grad.tobytes()
            assert leaf.grad.shape == leaf.data.shape and leaf.grad.flags.writeable
    # Every array a producer can see still holds what the forward pass wrote.
    for tensor, copied in zip(leaves + interior, copied_leaves + copied_interior):
        assert tensor.data.tobytes() == copied.data.tobytes()
    owned = [leaf.grad for leaf in leaves if leaf.grad is not None]
    for first, second in combinations(owned, 2):
        assert not np.shares_memory(first, second)
    # Interior nodes are released by the sweep; leaves keep their gradients.
    for node in interior:
        assert node.grad is None and node._parents == ()


ownership_cases = st.tuples(
    st.sampled_from(_SCENARIOS),
    st.integers(1, 6),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**16),
)


class TestGradientOwnership:
    @settings(max_examples=60, deadline=400)
    @given(ownership_cases)
    def test_leaf_gradients_equal_the_copying_accumulation(self, case):
        _check_ownership(*case)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(
        st.tuples(
            st.sampled_from(_SCENARIOS),
            st.integers(1, 40),
            st.integers(1, 24),
            st.booleans(),
            st.integers(0, 2**16),
        )
    )
    def test_leaf_gradients_equal_the_copying_accumulation_wide(self, case):
        _check_ownership(*case)

    def test_the_upstream_gradient_is_neither_kept_nor_written(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        upstream = np.full((2, 3), 2.0)
        (a + 1.0).backward(upstream)
        (a + 1.0).backward(upstream)  # adds into a.grad in place
        np.testing.assert_array_equal(upstream, np.full((2, 3), 2.0))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
        assert not np.shares_memory(a.grad, upstream)

    @pytest.mark.parametrize("masked", range(4))
    def test_a_masked_root_leaves_the_upstream_gradient_as_it_was(self, masked):
        # The masked adjoints multiply the buffer they receive in place; at
        # the root that buffer must be the root's copy, not the caller's.
        rng = np.random.default_rng(masked)
        x, forwards, _ = _masked_layers(rng, 5, 4, True)
        root = forwards[masked](x)
        upstream = rng.standard_normal(root.shape)
        kept = upstream.copy()
        root.backward(upstream)
        assert upstream.tobytes() == kept.tobytes()
        if x.grad is not None:  # the constant-input layer has no path to x
            assert not np.shares_memory(x.grad, upstream)

    def test_second_backward_over_a_swept_graph_raises(self):
        a = Tensor(np.ones(3), requires_grad=True)
        y = a * 2.0
        out = y.sum()
        out.backward()
        with pytest.raises(RuntimeError, match="already swept"):
            out.backward()
        # ... also when the swept node sits inside a new graph.
        with pytest.raises(RuntimeError, match="already swept"):
            (y * 3.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full(3, 2.0))  # untouched by both


class TestRowReduction:
    """The ``einsum`` behind every bias gradient is ``sum(axis=0)``, bit for bit."""

    @settings(max_examples=80, deadline=400)
    @given(
        st.integers(0, 300),
        st.integers(1, 20),
        st.sampled_from(["C", "F", "strided"]),
        st.integers(0, 2**16),
    )
    def test_equals_sum_over_rows(self, rows, cols, layout, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((rows, cols)) * rng.choice([1e-8, 1.0, 1e8], size=(rows, cols))
        if layout == "F":
            matrix = np.asfortranarray(matrix)
        elif layout == "strided":
            matrix = np.repeat(matrix, 2, axis=1)[:, ::2]
        reduced = _unbroadcast(matrix, (cols,))
        assert reduced.tobytes() == matrix.sum(axis=0).tobytes()
        assert reduced.shape == (cols,) and not np.shares_memory(reduced, matrix)

    def test_the_bias_sized_gradient(self):
        grad = np.random.default_rng(0).standard_normal((112_483, 16))
        for matrix in (grad, np.asfortranarray(grad)):
            assert _unbroadcast(matrix, (16,)).tobytes() == matrix.sum(axis=0).tobytes()
