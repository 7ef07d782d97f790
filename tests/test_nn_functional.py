"""Tests for the graph-oriented functional primitives."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers.rng_contract import assert_stream_contract, replay_dropout_draw
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestSparseMatmul:
    def test_forward_matches_dense(self):
        matrix = sp.csr_matrix(np.array([[1.0, 0.0], [2.0, 3.0]]))
        dense = Tensor(np.array([[1.0, 1.0], [2.0, 0.5]]))
        out = F.sparse_matmul(matrix, dense)
        np.testing.assert_allclose(out.data, matrix.toarray() @ dense.data)

    def test_backward_uses_transpose(self):
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        dense = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
        F.sparse_matmul(matrix, dense).sum().backward()
        np.testing.assert_allclose(dense.grad, matrix.toarray().T @ np.ones((2, 1)))

    def test_rejects_dense_matrix(self):
        with pytest.raises(TypeError):
            F.sparse_matmul(np.eye(2), Tensor(np.ones((2, 1))))


class TestGatherScatter:
    def test_gather_forward_backward(self):
        tensor = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        index = np.array([2, 0, 2])
        out = F.gather(tensor, index)
        np.testing.assert_allclose(out.data, tensor.data[index])
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, [[1, 1], [0, 0], [2, 2]])

    def test_scatter_add_forward(self):
        tensor = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = F.scatter_add(tensor, np.array([0, 1, 0]), num_segments=2)
        np.testing.assert_allclose(out.data, [[4.0], [2.0]])

    def test_scatter_add_backward_copies_gradient(self):
        tensor = Tensor(np.ones((3, 2)), requires_grad=True)
        out = F.scatter_add(tensor, np.array([1, 1, 0]), num_segments=2)
        (out * Tensor(np.array([[1.0, 1.0], [5.0, 5.0]]))).sum().backward()
        np.testing.assert_allclose(tensor.grad, [[5, 5], [5, 5], [1, 1]])

    def test_gather_then_scatter_roundtrip(self):
        tensor = Tensor(np.arange(8, dtype=float).reshape(4, 2))
        index = np.arange(4)
        out = F.scatter_add(F.gather(tensor, index), index, num_segments=4)
        np.testing.assert_allclose(out.data, tensor.data)

    def test_gather_rows_columns(self):
        tensor = Tensor(np.arange(6, dtype=float).reshape(3, 2), requires_grad=True)
        out = F.gather_rows_columns(tensor, np.array([1, 0, 1]))
        np.testing.assert_allclose(out.data, [1.0, 2.0, 5.0])
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, [[0, 1], [1, 0], [0, 1]])


class TestSegmentSoftmax:
    def test_sums_to_one_per_segment(self):
        values = Tensor(np.array([1.0, 2.0, 0.5, 3.0, -1.0]))
        segment_ids = np.array([0, 0, 1, 1, 1])
        out = F.segment_softmax(values, segment_ids, num_segments=2)
        assert out.data[:2].sum() == pytest.approx(1.0)
        assert out.data[2:].sum() == pytest.approx(1.0)

    def test_matches_plain_softmax_within_single_segment(self):
        values = np.array([0.1, 2.0, -1.0])
        out = F.segment_softmax(Tensor(values), np.zeros(3, dtype=int), 1)
        expected = np.exp(values - values.max())
        expected /= expected.sum()
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_multihead_shape(self):
        values = Tensor(np.random.default_rng(0).normal(size=(6, 4)))
        out = F.segment_softmax(values, np.array([0, 0, 1, 1, 2, 2]), 3)
        assert out.data.shape == (6, 4)
        np.testing.assert_allclose(out.data.reshape(3, 2, 4).sum(axis=1), np.ones((3, 4)))

    def test_gradient_is_finite(self):
        values = Tensor(np.array([100.0, -100.0, 50.0]), requires_grad=True)
        out = F.segment_softmax(values, np.array([0, 0, 0]), 1)
        out.sum().backward()
        assert np.all(np.isfinite(values.grad))


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        out = F.softmax(logits)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    def test_log_softmax_is_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10
        )

    def test_log_softmax_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, 0.0], [0.0, -1000.0]]))
        out = F.log_softmax(logits).data
        assert np.all(np.isfinite(out))

    @given(st.integers(2, 6), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_softmax_invariant_to_shift(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        logits = rng.normal(size=(rows, cols))
        base = F.softmax(Tensor(logits)).data
        shifted = F.softmax(Tensor(logits + 7.5)).data
        np.testing.assert_allclose(base, shifted, atol=1e-10)


def _dropout_reference(data, upstream, probability, training, rng):
    """The formulation ``F.dropout`` replaced: a float64 ``(u < keep) / keep``
    mask multiplied into the input and, in backward, into the gradient."""
    if not training or probability <= 0.0:
        return data, upstream
    keep = 1.0 - probability
    mask = (rng.random(data.shape) < keep) / keep
    return data * mask, upstream * mask


def _check_dropout_parity(shape, probability, training, seed):
    values = np.random.default_rng(seed)
    data = values.standard_normal(shape) * values.choice([0.0, 1e-300, 1.0, 1e300], size=shape)
    upstream = values.standard_normal(shape)
    tensor = Tensor(data.copy(), requires_grad=True)
    gradient = upstream.copy()
    draws = training and probability > 0.0
    out = assert_stream_contract(
        lambda rng: F.dropout(tensor, probability, training, rng=rng),
        np.random.default_rng(seed + 1),
        (lambda twin: replay_dropout_draw(twin, shape)) if draws else 0,
    )
    out.backward(gradient)
    expected_out, expected_grad = _dropout_reference(
        data, upstream, probability, training, np.random.default_rng(seed + 1)
    )
    # Bit for bit, the sign of a dropped entry's zero included.
    assert out.data.tobytes() == expected_out.tobytes()
    assert tensor.grad.tobytes() == expected_grad.tobytes()
    # Neither the input nor the caller's gradient was written to or kept.
    assert tensor.data.tobytes() == data.tobytes()
    assert gradient.tobytes() == upstream.tobytes()
    assert not np.shares_memory(tensor.grad, gradient)


dropout_cases = st.tuples(
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
    st.sampled_from([0.0, 0.01, 0.5, 0.99]),
    st.booleans(),
    st.integers(0, 2**16),
)


class TestDropoutParity:
    """``F.dropout`` equals the float64-mask formulation it replaced, forward
    and backward, and consumes exactly one ``rng.random(shape)``."""

    @settings(max_examples=60, deadline=400)
    @given(dropout_cases)
    def test_matches_the_float_mask_formula(self, case):
        _check_dropout_parity(*case)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(
        st.tuples(
            hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=40),
            st.sampled_from([0.0, 0.01, 0.5, 0.99]),
            st.booleans(),
            st.integers(0, 2**16),
        )
    )
    def test_matches_the_float_mask_formula_wide(self, case):
        _check_dropout_parity(*case)


class TestDropoutAndLinear:
    def test_dropout_eval_mode_is_identity(self):
        tensor = Tensor(np.ones((10, 10)))
        out = F.dropout(tensor, 0.5, training=False)
        np.testing.assert_allclose(out.data, tensor.data)

    def test_dropout_scales_surviving_entries(self):
        rng = np.random.default_rng(0)
        tensor = Tensor(np.ones((200, 50)))
        out = F.dropout(tensor, 0.4, training=True, rng=rng)
        surviving = out.data[out.data > 0]
        np.testing.assert_allclose(surviving, 1.0 / 0.6)
        assert abs((out.data == 0).mean() - 0.4) < 0.05

    def test_dropout_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.5, training=True)

    def test_linear_with_bias(self):
        x = Tensor(np.ones((2, 3)))
        weight = Tensor(np.eye(3))
        bias = Tensor(np.array([1.0, 2.0, 3.0]))
        out = F.linear(x, weight, bias)
        np.testing.assert_allclose(out.data, [[2, 3, 4], [2, 3, 4]])

    def test_embedding_mean_groups(self):
        tensor = Tensor(np.array([[2.0], [4.0], [6.0]]))
        out = F.embedding_mean(tensor, np.array([0, 0, 1]))
        np.testing.assert_allclose(out.data, [[3.0], [6.0]])
