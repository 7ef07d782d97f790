"""The fused GAT layer against its oracle, the composite autograd graph.

Generated edge lists (destinations without an edge, duplicate edges, self
loops, unsorted ``dst``, one node, ``E = 0``), plan reuse across passes, and a
structural guard on the memory the fused layer may touch.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching import IdentityCache
from repro.gnn.gat import GATLayer
from repro.gnn.models import GraphInput
from repro.nn.backend import FastNumpyBackend, PreparedEdges, use_backend
from repro.nn.tensor import Tensor


def _composite_backend() -> FastNumpyBackend:
    """The fast kernels with fusion switched off: the composite graph."""
    backend = FastNumpyBackend()
    backend.allow_fused = False
    return backend


def _layer_pass(backend, layer, features_data, edge_index, upstream, activation):
    layer.zero_grad()
    with use_backend(backend):
        features = Tensor(features_data.copy(), requires_grad=True)
        out = layer(features, edge_index, activation=activation)
        (out * Tensor(upstream)).sum().backward()
    return (
        out.data,
        features.grad,
        layer.weight.grad,
        layer.attention_src.grad,
        layer.attention_dst.grad,
        layer.bias.grad,
    )


@st.composite
def gat_cases(draw, max_nodes, max_edges):
    nodes = draw(st.integers(1, max_nodes))
    edges = draw(st.integers(0, max_edges))
    node_ids = st.integers(0, nodes - 1)
    src = draw(st.lists(node_ids, min_size=edges, max_size=edges))
    dst = draw(st.lists(node_ids, min_size=edges, max_size=edges))
    if edges and draw(st.booleans()):  # duplicates and a self loop, explicitly
        src += [src[0], dst[0]]
        dst += [dst[0], dst[0]]
    return dict(
        nodes=nodes,
        edge_index=np.array([src, dst], dtype=np.int64).reshape(2, -1),
        heads=draw(st.sampled_from([1, 2, 4])),
        concat_heads=draw(st.booleans()),
        activation=draw(st.sampled_from([None, "relu"])),
        seed=draw(st.integers(0, 2**16)),
    )


def _check_parity(case):
    rng = np.random.default_rng(case["seed"])
    layer = GATLayer(
        3, 2, num_heads=case["heads"], concat_heads=case["concat_heads"], rng=rng
    )
    layer.bias.data = rng.standard_normal(layer.bias.data.shape)
    features = rng.standard_normal((case["nodes"], 3))
    upstream = rng.standard_normal((case["nodes"], layer.output_dim))
    args = (layer, features, case["edge_index"], upstream, case["activation"])
    composite = [part.copy() for part in _layer_pass(_composite_backend(), *args)]
    fused = _layer_pass("numpy", *args)
    for fused_part, composite_part in zip(fused, composite):
        np.testing.assert_allclose(fused_part, composite_part, atol=1e-10)


class TestGeneratedParity:
    @settings(max_examples=40, deadline=400)
    @given(gat_cases(max_nodes=7, max_edges=16))
    def test_fused_matches_composite(self, case):
        _check_parity(case)

    @pytest.mark.slow
    @settings(max_examples=600, deadline=None)
    @given(gat_cases(max_nodes=40, max_edges=300))
    def test_fused_matches_composite_wide(self, case):
        _check_parity(case)

    @pytest.mark.parametrize("concat_heads", [True, False])
    def test_no_edges_yields_bias_only(self, concat_heads):
        layer = GATLayer(3, 2, num_heads=2, concat_heads=concat_heads,
                         rng=np.random.default_rng(0))
        layer.bias.data = np.arange(layer.output_dim, dtype=np.float64)
        features = Tensor(np.ones((4, 3)), requires_grad=True)
        with use_backend("numpy"):
            out = layer(features, np.zeros((2, 0), dtype=np.int64))
            out.sum().backward()
        np.testing.assert_array_equal(out.data, np.tile(layer.bias.data, (4, 1)))
        assert not features.grad.any()

    def test_plan_rejects_out_of_range_nodes(self):
        with pytest.raises(IndexError):
            PreparedEdges(np.array([[0, 5], [1, 1]]), 3)
        with pytest.raises(IndexError):
            PreparedEdges(np.array([[0, 1], [1, 3]]), 3)
        with pytest.raises(ValueError):
            PreparedEdges(np.array([[0, 1], [-1, 1]]), 3)


class TestPlanReuse:
    """Structure derived from an edge index is built on the first pass only —
    also for the ``src`` / ``dst`` rows the composite path unpacks, which are
    new view objects on every call."""

    @pytest.mark.parametrize("fused", [True, False])
    def test_second_pass_builds_nothing(self, fused, monkeypatch):
        rng = np.random.default_rng(3)
        graph_input = GraphInput.from_adjacency(
            sp.csr_matrix((rng.random((12, 12)) < 0.3).astype(np.float64))
        )
        layer = GATLayer(4, 3, num_heads=2, rng=rng)
        features = rng.standard_normal((12, 4))
        upstream = rng.standard_normal((12, layer.output_dim))
        backend = FastNumpyBackend()
        backend.allow_fused = fused

        builds = []
        original_put = IdentityCache.put

        def counting_put(cache, anchor, value, extra=None):
            if cache is backend._segment_cache:
                builds.append(type(value).__name__)
            return original_put(cache, anchor, value, extra)

        monkeypatch.setattr(IdentityCache, "put", counting_put)
        args = (backend, layer, features, graph_input.edge_index, upstream, "relu")
        first = [part.copy() for part in _layer_pass(*args)]
        built_by_first_pass = list(builds)
        second = _layer_pass(*args)
        assert built_by_first_pass  # the spy sees this backend's builds
        assert builds == built_by_first_pass
        if fused:
            assert built_by_first_pass == ["PreparedEdges"]
        for first_part, second_part in zip(first, second):
            np.testing.assert_array_equal(first_part, second_part)

    def test_plan_dies_with_its_edge_index(self):
        backend = FastNumpyBackend()
        edge_index = np.array([[0, 1, 2], [1, 2, 0]])
        plan = backend.prepare_edges(edge_index, 3)
        assert backend.prepare_edges(edge_index, 3) is plan
        assert len(backend._segment_cache) == 1
        del edge_index
        assert len(backend._segment_cache) == 0


def test_fused_layer_allocates_no_edge_by_feature_array():
    # Structural guard in place of a timing test: one fused forward + backward
    # must stay well below the footprint of (E, H, F) temporaries — the old
    # gather/multiply/scatter path peaked above four of them.
    nodes, edges, heads, head_dim = 2000, 20_000, 4, 16
    rng = np.random.default_rng(5)
    edge_index = rng.integers(0, nodes, size=(2, edges))
    layer = GATLayer(8, head_dim, num_heads=heads, rng=rng)
    features = Tensor(rng.standard_normal((nodes, 8)), requires_grad=True)
    upstream = Tensor(rng.standard_normal((nodes, layer.output_dim)))
    with use_backend(FastNumpyBackend()):
        tracemalloc.start()
        try:
            out = layer(features, edge_index, activation="relu")
            (out * upstream).sum().backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * edges * heads * head_dim * 8
