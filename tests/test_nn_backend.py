"""Tests for the pluggable compute backend (kernel parity, registry)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn.gat import GATLayer
from repro.gnn.gcn import GCNLayer
from repro.gnn.models import EncoderConfig, GNNEncoder, GraphInput
from repro.nn import backend as backend_module
from repro.nn import functional as F
from repro.nn.backend import (
    FastNumpyBackend,
    OpsBackend,
    PreparedMatrix,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.nn.tensor import Tensor

BACKENDS = ("numpy", "reference")


def _random_csr(rng, rows=12, cols=12, density=0.3):
    mask = rng.random((rows, cols)) < density
    values = rng.random((rows, cols)) * mask
    return sp.csr_matrix(values)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["numpy", "reference"]

    def test_use_backend_restores_previous(self):
        before = get_backend()
        with use_backend("reference") as backend:
            assert get_backend() is backend
            assert backend.name == "reference"
        assert get_backend() is before

    def test_set_backend_unknown_name(self):
        with pytest.raises(KeyError):
            set_backend("no-such-backend")

    def test_register_custom_backend(self, monkeypatch):
        class Custom(OpsBackend):
            name = "custom-test"

        # Register into throwaway copies: the process-wide registry must stay
        # builtin-only for test_builtin_backends_registered in any order.
        monkeypatch.setattr(backend_module, "_FACTORIES", dict(backend_module._FACTORIES))
        monkeypatch.setattr(backend_module, "_instances", dict(backend_module._instances))
        register_backend("custom-test", Custom)
        with use_backend("custom-test") as backend:
            assert isinstance(backend, Custom)

    def test_allow_fused_flags(self):
        with use_backend("reference") as backend:
            assert backend.allow_fused is False
        with use_backend("numpy") as backend:
            assert backend.allow_fused is True


class TestKernelParity:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_spmm_and_adjoint(self, name):
        rng = np.random.default_rng(0)
        matrix = _random_csr(rng)
        dense = rng.random((12, 7))
        reference_out = matrix @ dense
        reference_adjoint = matrix.T @ dense
        with use_backend(name) as backend:
            np.testing.assert_allclose(backend.spmm(matrix, dense), reference_out, atol=1e-12)
            np.testing.assert_allclose(
                backend.spmm_t(matrix, dense), reference_adjoint, atol=1e-12
            )

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("trailing", [(), (5,), (3, 4)])
    def test_scatter_and_segment_ops(self, name, trailing):
        rng = np.random.default_rng(1)
        index = rng.integers(0, 6, size=40)
        values = rng.random((40,) + trailing)
        expected = np.zeros((6,) + trailing)
        np.add.at(expected, index, values)
        counts = np.bincount(index, minlength=6).astype(np.float64)
        with use_backend(name) as backend:
            np.testing.assert_allclose(
                backend.segment_sum(values, index, 6), expected, atol=1e-12
            )
            np.testing.assert_allclose(
                backend.scatter_rows(values, index, 6), expected, atol=1e-12
            )
            np.testing.assert_allclose(backend.segment_counts(index, 6), counts)
            np.testing.assert_array_equal(backend.take_rows(values, index[:5]), values[index[:5]])

    @pytest.mark.parametrize(
        "index, num_segments",
        [
            ([3, 0, 3, 5, 0, 3], 7),  # unsorted, segments 1, 2, 4 and 6 empty
            ([0, 0, 0, 0], 1),  # a single segment
            ([], 3),  # nothing but empty segments
        ],
    )
    @pytest.mark.parametrize("trailing", [(), (4,)])
    def test_segment_max_matches_base_kernel(self, index, num_segments, trailing):
        # The fast backend's sorted-reduceat override against the base class's
        # np.maximum.at, including -inf for segments that receive no row.
        index = np.asarray(index, dtype=np.int64)
        values = np.random.default_rng(2).standard_normal((index.shape[0],) + trailing)
        expected = OpsBackend().segment_max(values, index, num_segments)
        with use_backend("numpy") as backend:
            assert type(backend).segment_max is not OpsBackend.segment_max
            np.testing.assert_array_equal(
                backend.segment_max(values, index, num_segments), expected
            )
            # second call is served by the cached sort
            np.testing.assert_array_equal(
                backend.segment_max(values, index, num_segments), expected
            )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_segments(self, name):
        values = np.zeros((0, 3))
        index = np.zeros(0, dtype=np.int64)
        with use_backend(name) as backend:
            out = backend.segment_sum(values, index, 4)
            assert out.shape == (4, 3)
            assert not out.any()


class TestAutogradParity:
    def _gcn_loss_and_grads(self, backend_name):
        rng = np.random.default_rng(3)
        adjacency = _random_csr(rng, 10, 10)
        features = Tensor(rng.random((10, 6)))
        with use_backend(backend_name):
            layer = GCNLayer(6, 4, rng=np.random.default_rng(7))
            out = layer(features, adjacency)
            loss = (out * out).sum()
            loss.backward()
            return (
                out.data.copy(),
                loss.item(),
                layer.weight.grad.copy(),
                layer.bias.grad.copy(),
            )

    def test_gcn_dense_vs_sparse_parity(self):
        out_ref, loss_ref, w_ref, b_ref = self._gcn_loss_and_grads("reference")
        out, loss, w_grad, b_grad = self._gcn_loss_and_grads("numpy")
        np.testing.assert_allclose(out, out_ref, atol=1e-9)
        assert abs(loss - loss_ref) < 1e-9
        np.testing.assert_allclose(w_grad, w_ref, atol=1e-9)
        np.testing.assert_allclose(b_grad, b_ref, atol=1e-9)

    def _gat_outputs(self, backend_name):
        rng = np.random.default_rng(4)
        edge_index = np.stack(
            [rng.integers(0, 8, size=30), rng.integers(0, 8, size=30)]
        )
        features = Tensor(rng.random((8, 5)), requires_grad=True)
        with use_backend(backend_name):
            layer = GATLayer(5, 3, num_heads=2, rng=np.random.default_rng(9))
            out = layer(features, edge_index)
            loss = (out * out).sum()
            loss.backward()
            return out.data.copy(), features.grad.copy(), layer.weight.grad.copy()

    def test_gat_backend_parity(self):
        out_ref, f_ref, w_ref = self._gat_outputs("reference")
        out, f_grad, w_grad = self._gat_outputs("numpy")
        np.testing.assert_allclose(out, out_ref, atol=1e-9)
        np.testing.assert_allclose(f_grad, f_ref, atol=1e-9)
        np.testing.assert_allclose(w_grad, w_ref, atol=1e-9)

    def test_fused_edge_attention_matches_composite(self):
        # The edge plan's softmax and its closed-form adjoint (what the fused
        # GAT layer runs) must reproduce the unfused composite graph
        # (gather + add + leaky-relu + segment softmax) in both the forward
        # values and the score gradients, on the same backend.
        rng = np.random.default_rng(12)
        num_nodes, num_edges, heads = 9, 40, 3
        src = rng.integers(0, num_nodes, size=num_edges)
        dst = rng.integers(0, num_nodes, size=num_edges)
        scores = rng.standard_normal((num_nodes, heads))
        weights = rng.standard_normal((num_edges, heads))
        with use_backend("numpy") as backend:
            src_scores = Tensor(scores.copy(), requires_grad=True)
            dst_scores = Tensor(scores.copy() * 0.5, requires_grad=True)
            logits = F.gather(src_scores, src) + F.gather(dst_scores, dst)
            attention = F.segment_softmax(logits.leaky_relu(0.2), dst, num_nodes)
            (attention * Tensor(weights)).sum().backward()
            composite = (attention.data, src_scores.grad, dst_scores.grad)

            # Same maths on the plan: (H, E) arrays in destination-sorted order.
            plan = backend.prepare_edges(np.stack([src, dst]), num_nodes)
            edge_logits = (scores[src] + 0.5 * scores[dst])[plan.order].T
            slope = np.where(edge_logits > 0, 1.0, 0.2)
            fused_attention = plan.softmax(edge_logits * slope)
            grad_logits = (
                plan.softmax_backward(fused_attention, weights[plan.order].T) * slope
            )
            src_grad = np.zeros((num_nodes, heads))
            np.add.at(src_grad, plan.src, grad_logits.T)
            fused = (
                fused_attention.T[np.argsort(plan.order)],
                src_grad,
                plan.segment_sum(grad_logits).T,
            )
        for fused_part, composite_part in zip(fused, composite):
            np.testing.assert_allclose(fused_part, composite_part, atol=1e-12)
        # Per-destination attention sums to one wherever edges land.
        totals = np.zeros((num_nodes, heads))
        np.add.at(totals, dst, fused[0])
        landed = np.unique(dst)
        np.testing.assert_allclose(totals[landed], 1.0, atol=1e-9)

    def test_gat_fused_gate_follows_allow_fused(self):
        # The reference backend must execute the unfused graph; the fast
        # backend takes the fused kernel — outputs agree either way (see
        # test_gat_backend_parity), here we pin the gate itself.
        from repro.nn.backend import get_backend as _get
        with use_backend("reference"):
            assert _get().allow_fused is False
        with use_backend("numpy"):
            assert _get().allow_fused is True

    def test_encoder_parity_across_backends(self):
        rng = np.random.default_rng(5)
        adjacency = _random_csr(rng, 9, 9)
        graph_input = GraphInput.from_adjacency(adjacency)
        features_data = rng.random((9, 4))
        outputs = {}
        for name in BACKENDS:
            with use_backend(name):
                encoder = GNNEncoder(
                    4, EncoderConfig(num_layers=2, hidden_dim=6, output_dim=3, dropout=0.0),
                    rng=np.random.default_rng(21),
                )
                outputs[name] = encoder(Tensor(features_data), graph_input).data
        np.testing.assert_allclose(outputs["numpy"], outputs["reference"], atol=1e-9)

    def test_gather_scatter_gradients(self):
        rng = np.random.default_rng(6)
        index = rng.integers(0, 5, size=12)
        grads = {}
        for name in BACKENDS:
            with use_backend(name):
                source = Tensor(rng.random((5, 3)), requires_grad=True)
                # Use a fixed data array per backend by re-seeding the values.
                source.data[:] = np.arange(15, dtype=np.float64).reshape(5, 3)
                gathered = F.gather(source, index)
                pooled = F.scatter_add(gathered, index % 4, 4)
                (pooled * pooled).sum().backward()
                grads[name] = source.grad.copy()
        np.testing.assert_allclose(grads["numpy"], grads["reference"], atol=1e-9)


class TestPreparedMatrices:
    def test_sparse_matmul_rejects_dense_input(self):
        with pytest.raises(TypeError):
            F.sparse_matmul(np.eye(3), Tensor(np.ones((3, 2))))

    def test_prepare_matrix_is_cached_by_identity(self):
        matrix = _random_csr(np.random.default_rng(8))
        with use_backend("numpy") as backend:
            first = backend.prepare_matrix(matrix)
            second = backend.prepare_matrix(matrix)
            assert first is second
            assert isinstance(first, PreparedMatrix)
            # a PreparedMatrix passes through untouched
            assert backend.prepare_matrix(first) is first

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_prepared_matrix_dies_with_its_anchor(self, fmt):
        # A cached value must not reference its anchor (repro.caching): for
        # CSR input ``tocsr()`` *is* the input, which used to make every
        # prepared matrix immortal.  The prepared copy still shares the arrays.
        import gc

        backend = FastNumpyBackend()
        matrix = _random_csr(np.random.default_rng(8)).asformat(fmt)
        before = len(backend._matrix_cache)
        prepared = backend.prepare_matrix(matrix)
        assert len(backend._matrix_cache) == before + 1
        if fmt == "csr":
            assert prepared.csr is not matrix
            assert np.shares_memory(prepared.csr.data, matrix.data)
        expected = matrix @ np.ones((12, 2))
        del matrix
        gc.collect()
        assert len(backend._matrix_cache) == before
        np.testing.assert_array_equal(backend.spmm(prepared, np.ones((12, 2))), expected)

    def test_sparse_matmul_accepts_prepared_matrix(self):
        rng = np.random.default_rng(9)
        matrix = _random_csr(rng)
        prepared = PreparedMatrix(matrix)
        tensor = Tensor(rng.random((12, 4)), requires_grad=True)
        out = F.sparse_matmul(prepared, tensor)
        np.testing.assert_allclose(out.data, matrix @ tensor.data, atol=1e-12)
        out.sum().backward()
        np.testing.assert_allclose(
            tensor.grad, matrix.T @ np.ones((12, 4)), atol=1e-12
        )


class TestParameterRebindInvariant:
    """The fused GCN memos key on `Parameter.data` object identity, which is
    sound only while every weight update REBINDS the array instead of
    mutating it in place.  These tests enforce that contract on all current
    update paths so a future in-place optimizer cannot silently serve stale
    cached activations."""

    def test_optimizers_rebind_parameter_data(self):
        from repro.nn.module import Parameter
        from repro.nn.optim import SGD, Adam

        for make_optimizer in (
            lambda params: Adam(params, lr=0.1),
            lambda params: SGD(params, lr=0.1),
        ):
            parameter = Parameter(np.ones((3, 2)))
            parameter.grad = np.ones((3, 2))
            optimizer = make_optimizer([parameter])
            before = parameter.data
            optimizer.step()
            assert parameter.data is not before
            np.testing.assert_array_equal(before, np.ones((3, 2)))

    def test_load_state_dict_rebinds_parameter_data(self):
        rng = np.random.default_rng(0)
        layer = GCNLayer(4, 3, rng=rng)
        state = layer.state_dict()
        before = layer.weight.data
        layer.load_state_dict(state)
        assert layer.weight.data is not before

    def test_stale_cache_detected_after_rebind(self):
        # After any rebind, the fused forward must recompute, not reuse.
        rng = np.random.default_rng(2)
        adjacency = _random_csr(rng, 8, 8)
        features = Tensor(rng.random((8, 4)))
        with use_backend("numpy"):
            layer = GCNLayer(4, 3, rng=np.random.default_rng(3))
            first = layer(features, adjacency).data
            layer.weight.data = layer.weight.data + 1.0  # rebind
            second = layer(features, adjacency).data
            assert not np.allclose(first, second)


class TestBatchedKernels:
    """fold_chain and the batched ``Tensor.__matmul__`` adjoint."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_fold_chain_matches_sequential_application(self, name):
        rng = np.random.default_rng(31)
        pool = _random_csr(rng, 5, 14, density=0.4)
        adjacency = _random_csr(rng, 14, 14)
        dense = rng.standard_normal((14, 3))
        with use_backend(name) as backend:
            folded = backend.fold_chain([pool, adjacency])
            out = backend.spmm(folded, dense)
            expected = backend.spmm(pool, backend.spmm(adjacency, dense))
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_fold_chain_single_and_empty(self):
        rng = np.random.default_rng(32)
        matrix = _random_csr(rng, 6, 6)
        with use_backend("numpy") as backend:
            dense = rng.standard_normal((6, 2))
            np.testing.assert_allclose(
                backend.spmm(backend.fold_chain([matrix]), dense),
                matrix @ dense,
                atol=1e-12,
            )
            with pytest.raises(ValueError):
                backend.fold_chain([])

    def test_batched_matmul_gradients_match_per_slice(self):
        # (K, N, d) @ (d, o) and (K, N, d) @ (K, d, o): the backward pass
        # must swap the *last two* axes, not transpose the whole stack.
        rng = np.random.default_rng(34)
        stack_data = rng.standard_normal((3, 7, 5))
        shared_data = rng.standard_normal((5, 2))
        batched_data = rng.standard_normal((3, 5, 2))
        upstream = rng.standard_normal((3, 7, 2))
        for rhs_data in (shared_data, batched_data):
            lhs = Tensor(stack_data.copy(), requires_grad=True)
            rhs = Tensor(rhs_data.copy(), requires_grad=True)
            ((lhs @ rhs) * Tensor(upstream)).sum().backward()
            lhs_expected = np.zeros_like(stack_data)
            rhs_expected = np.zeros_like(rhs_data)
            for k in range(3):
                rhs_slice = rhs_data if rhs_data.ndim == 2 else rhs_data[k]
                lhs_expected[k] = upstream[k] @ rhs_slice.T
                if rhs_data.ndim == 2:
                    rhs_expected += stack_data[k].T @ upstream[k]
                else:
                    rhs_expected[k] = stack_data[k].T @ upstream[k]
            np.testing.assert_allclose(lhs.grad, lhs_expected, atol=1e-12)
            np.testing.assert_allclose(rhs.grad, rhs_expected, atol=1e-12)


class TestFusedLayerParity:
    """Fused single-node layers vs the composite graphs they replace.

    Randomised float64 shapes; forward values AND every gradient must agree.
    """

    def _composite_gcn(self, features, matrix, weight, bias, activation):
        out = F.sparse_matmul(matrix, features @ weight)
        if bias is not None:
            out = out + bias
        if activation == "relu":
            out = out.relu()
        return out

    @pytest.mark.parametrize("activation", [None, "relu"])
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_fused_gcn_layer_matches_composite(self, activation, with_bias):
        rng = np.random.default_rng(40)
        nodes, d_in, d_out = int(rng.integers(8, 20)), int(rng.integers(3, 9)), int(rng.integers(2, 7))
        matrix = _random_csr(rng, nodes, nodes)
        features_data = rng.standard_normal((nodes, d_in))
        weight_data = rng.standard_normal((d_in, d_out))
        bias_data = rng.standard_normal(d_out) if with_bias else None
        upstream = rng.standard_normal((nodes, d_out))
        results = {}
        with use_backend("numpy"):
            for mode in ("fused", "composite"):
                features = Tensor(features_data.copy(), requires_grad=True)
                weight = Tensor(weight_data.copy(), requires_grad=True)
                bias = Tensor(bias_data.copy(), requires_grad=True) if with_bias else None
                if mode == "fused":
                    out = F.fused_gcn_layer(features, matrix, weight, bias, activation)
                else:
                    out = self._composite_gcn(features, matrix, weight, bias, activation)
                (out * Tensor(upstream)).sum().backward()
                results[mode] = (
                    out.data,
                    features.grad,
                    weight.grad,
                    bias.grad if with_bias else np.zeros(1),
                )
        for fused_part, composite_part in zip(results["fused"], results["composite"]):
            np.testing.assert_allclose(fused_part, composite_part, atol=1e-12)

    def test_fused_gcn_layer_folded_bias_operator(self):
        # M = fold(P, A) with bias entering as (P @ 1) ⊗ b must equal the
        # unfolded P @ (A (X W) + 1 bᵀ) — same math, reassociated.
        rng = np.random.default_rng(41)
        pool = _random_csr(rng, 6, 15, density=0.4)
        adjacency = _random_csr(rng, 15, 15)
        features_data = rng.standard_normal((15, 5))
        weight_data = rng.standard_normal((5, 4))
        bias_data = rng.standard_normal(4)
        upstream = rng.standard_normal((6, 4))
        with use_backend("numpy") as backend:
            folded = backend.fold_chain([pool, adjacency])
            row_sums = np.asarray(pool.sum(axis=1)).ravel()

            features = Tensor(features_data.copy(), requires_grad=True)
            weight = Tensor(weight_data.copy(), requires_grad=True)
            bias = Tensor(bias_data.copy(), requires_grad=True)
            fused = F.fused_gcn_layer(
                features, folded, weight, bias, bias_operator=row_sums
            )
            (fused * Tensor(upstream)).sum().backward()

            features_u = Tensor(features_data.copy(), requires_grad=True)
            weight_u = Tensor(weight_data.copy(), requires_grad=True)
            bias_u = Tensor(bias_data.copy(), requires_grad=True)
            unfolded = F.sparse_matmul(
                pool, F.sparse_matmul(adjacency, features_u @ weight_u) + bias_u
            )
            (unfolded * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(fused.data, unfolded.data, atol=1e-10)
        np.testing.assert_allclose(features.grad, features_u.grad, atol=1e-10)
        np.testing.assert_allclose(weight.grad, weight_u.grad, atol=1e-10)
        np.testing.assert_allclose(bias.grad, bias_u.grad, atol=1e-10)

    def test_fused_pool_head_matches_composite(self):
        rng = np.random.default_rng(42)
        pool = _random_csr(rng, 5, 12, density=0.5)
        embeddings_data = rng.standard_normal((12, 6))
        weight_data = rng.standard_normal((6, 3))
        bias_data = rng.standard_normal(3)
        upstream = rng.standard_normal((5, 3))
        with use_backend("numpy"):
            embeddings = Tensor(embeddings_data.copy(), requires_grad=True)
            weight = Tensor(weight_data.copy(), requires_grad=True)
            bias = Tensor(bias_data.copy(), requires_grad=True)
            fused = F.fused_pool_head(embeddings, pool, weight, bias)
            (fused * Tensor(upstream)).sum().backward()

            embeddings_c = Tensor(embeddings_data.copy(), requires_grad=True)
            weight_c = Tensor(weight_data.copy(), requires_grad=True)
            bias_c = Tensor(bias_data.copy(), requires_grad=True)
            composite = F.sparse_matmul(pool, embeddings_c) @ weight_c + bias_c
            (composite * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(fused.data, composite.data, atol=1e-12)
        np.testing.assert_allclose(embeddings.grad, embeddings_c.grad, atol=1e-12)
        np.testing.assert_allclose(weight.grad, weight_c.grad, atol=1e-12)
        np.testing.assert_allclose(bias.grad, bias_c.grad, atol=1e-12)

    @pytest.mark.parametrize("concat_heads", [True, False])
    def test_fused_gat_layer_matches_composite(self, concat_heads):
        # Same layer parameters, fused (allow_fused=True) vs the composite
        # graph forced via the allow_fused=False escape hatch on the SAME
        # fast backend — so any drift is the fusion, not the kernels.
        from repro.nn.backend import FastNumpyBackend

        rng = np.random.default_rng(43)
        nodes, edges = int(rng.integers(8, 16)), int(rng.integers(25, 50))
        edge_index = np.stack(
            [rng.integers(0, nodes, size=edges), rng.integers(0, nodes, size=edges)]
        )
        features_data = rng.standard_normal((nodes, 5))
        layer = GATLayer(5, 3, num_heads=2, concat_heads=concat_heads,
                         rng=np.random.default_rng(44))
        out_dim = layer.output_dim
        upstream = rng.standard_normal((nodes, out_dim))
        hatch = FastNumpyBackend()
        hatch.allow_fused = False
        results = {}
        for mode, backend in (("fused", "numpy"), ("composite", hatch)):
            layer.zero_grad()
            with use_backend(backend):
                features = Tensor(features_data.copy(), requires_grad=True)
                out = layer(features, edge_index, activation="relu")
                (out * Tensor(upstream)).sum().backward()
            results[mode] = (
                out.data,
                features.grad,
                layer.weight.grad.copy(),
                layer.attention_src.grad.copy(),
                layer.attention_dst.grad.copy(),
                layer.bias.grad.copy(),
            )
        for fused_part, composite_part in zip(results["fused"], results["composite"]):
            np.testing.assert_allclose(fused_part, composite_part, atol=1e-10)

    def test_fused_folded_head_matches_unfolded_chain(self):
        # (M (H W_f) + s ⊗ b_f) W_h + b_h with the weight products collapsed
        # must match the unfolded fused_gcn_layer -> pool_head pair.
        rng = np.random.default_rng(47)
        pool = _random_csr(rng, 6, 14, density=0.4)
        adjacency = _random_csr(rng, 14, 14)
        hidden_data = rng.standard_normal((14, 5))
        layer_weight_data = rng.standard_normal((5, 4))
        layer_bias_data = rng.standard_normal(4)
        head_weight_data = rng.standard_normal((4, 3))
        head_bias_data = rng.standard_normal(3)
        upstream = rng.standard_normal((6, 3))
        with use_backend("numpy") as backend:
            folded = backend.fold_chain([pool, adjacency])
            row_sums = np.asarray(pool.sum(axis=1)).ravel()

            hidden = Tensor(hidden_data.copy(), requires_grad=True)
            layer_weight = Tensor(layer_weight_data.copy(), requires_grad=True)
            layer_bias = Tensor(layer_bias_data.copy(), requires_grad=True)
            head_weight = Tensor(head_weight_data.copy(), requires_grad=True)
            head_bias = Tensor(head_bias_data.copy(), requires_grad=True)
            fused = F.fused_folded_head(
                hidden, folded, layer_weight, layer_bias,
                head_weight, head_bias, row_sums,
            )
            (fused * Tensor(upstream)).sum().backward()

            hidden_u = Tensor(hidden_data.copy(), requires_grad=True)
            layer_weight_u = Tensor(layer_weight_data.copy(), requires_grad=True)
            layer_bias_u = Tensor(layer_bias_data.copy(), requires_grad=True)
            head_weight_u = Tensor(head_weight_data.copy(), requires_grad=True)
            head_bias_u = Tensor(head_bias_data.copy(), requires_grad=True)
            pooled = F.fused_gcn_layer(
                hidden_u, folded, layer_weight_u, layer_bias_u,
                bias_operator=row_sums,
            )
            unfolded = pooled @ head_weight_u + head_bias_u
            (unfolded * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(fused.data, unfolded.data, atol=1e-10)
        np.testing.assert_allclose(hidden.grad, hidden_u.grad, atol=1e-10)
        np.testing.assert_allclose(layer_weight.grad, layer_weight_u.grad, atol=1e-10)
        np.testing.assert_allclose(layer_bias.grad, layer_bias_u.grad, atol=1e-10)
        np.testing.assert_allclose(head_weight.grad, head_weight_u.grad, atol=1e-10)
        np.testing.assert_allclose(head_bias.grad, head_bias_u.grad, atol=1e-10)

    def test_fused_masked_cross_entropy_matches_composite_bitwise(self):
        rng = np.random.default_rng(48)
        nodes, classes = 17, 4
        logits_data = rng.standard_normal((nodes, classes))
        targets = rng.integers(0, classes, size=nodes)
        mask = rng.random(nodes) < 0.5
        weights = mask.astype(np.float64)
        total = max(weights.sum(), 1.0)
        with use_backend("numpy"):
            logits = Tensor(logits_data.copy(), requires_grad=True)
            fused = F.fused_masked_cross_entropy(logits, targets, weights, total)
            fused.backward()

            logits_c = Tensor(logits_data.copy(), requires_grad=True)
            picked = F.gather_rows_columns(
                F.log_softmax(logits_c, axis=-1), targets
            )
            composite = -(picked * Tensor(weights)).sum() / total
            composite.backward()
        # The fused forward replays the composite chain op for op: bitwise.
        assert fused.data == composite.data
        np.testing.assert_allclose(logits.grad, logits_c.grad, atol=1e-12)

    def test_allow_fused_escape_hatch_on_gcn(self):
        from repro.nn.backend import FastNumpyBackend

        rng = np.random.default_rng(45)
        adjacency = _random_csr(rng, 9, 9)
        features_data = rng.standard_normal((9, 4))
        layer = GCNLayer(4, 3, rng=np.random.default_rng(46))
        hatch = FastNumpyBackend()
        hatch.allow_fused = False
        results = {}
        for mode, backend in (("fused", "numpy"), ("composite", hatch)):
            layer.zero_grad()
            with use_backend(backend):
                features = Tensor(features_data.copy(), requires_grad=True)
                out = layer(features, adjacency, activation="relu")
                (out * out).sum().backward()
            results[mode] = (out.data, features.grad, layer.weight.grad.copy(),
                             layer.bias.grad.copy())
        for fused_part, composite_part in zip(results["fused"], results["composite"]):
            np.testing.assert_allclose(fused_part, composite_part, atol=1e-10)


class TestUseBackendExceptionSafety:
    def test_restored_after_body_raises(self):
        before = get_backend()
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend("reference"):
                assert get_backend().name == "reference"
                raise RuntimeError("boom")
        assert get_backend() is before

    def test_restored_after_failed_switch(self):
        before = get_backend()
        with pytest.raises(KeyError):
            with use_backend("no-such-backend"):
                pragma = "unreachable"  # noqa: F841
        assert get_backend() is before

    def test_nested_contexts_unwind_in_order(self):
        before = get_backend()
        with use_backend("reference") as outer:
            with pytest.raises(ValueError):
                with use_backend("numpy"):
                    assert get_backend().name == "numpy"
                    raise ValueError("inner")
            assert get_backend() is outer
        assert get_backend() is before
