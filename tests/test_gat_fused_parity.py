"""The fused GAT layer against its oracle, the composite autograd graph
(``gat_layer_forward`` in ``tests/helpers/oracles.py``).

Generated edge lists (destinations without an edge, duplicate edges, self
loops, unsorted ``dst``, one node, ``E = 0``), the plan kept by its owner
across passes, and a structural guard on the memory the fused layer may
touch.  The head-blocked plan's kernels are held to their oracles in
``tests/test_gat_blocked_plan.py``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn.gat import GATLayer
from repro.nn import backend as backend_module
from repro.nn.backend import PreparedEdges
from repro.nn.tensor import Tensor

from helpers.autograd import zero_grad
from helpers.oracles import gat_layer_forward, graph_input_from_adjacency


def _layer_pass(forward, layer, features_data, edge_index, upstream, activation):
    zero_grad(layer)
    features = Tensor(features_data.copy(), requires_grad=True)
    out = forward(layer, features, edge_index, activation=activation)
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
    upstream = rng.standard_normal((case["nodes"], layer.bias.shape[0]))
    # The composite graph reads the edges in the caller's order, the fused
    # layer their destination-sorted plan.
    plan = PreparedEdges(case["edge_index"], case["nodes"])
    composite = [
        part.copy()
        for part in _layer_pass(
            gat_layer_forward, layer, features, case["edge_index"], upstream, case["activation"]
        )
    ]
    fused = _layer_pass(GATLayer.forward, layer, features, plan, upstream, case["activation"])
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
        layer.bias.data = np.arange(layer.bias.shape[0], dtype=np.float64)
        features = Tensor(np.ones((4, 3)), requires_grad=True)
        out = layer(features, PreparedEdges(np.zeros((2, 0), dtype=np.int64), 4))
        out.sum().backward()
        np.testing.assert_array_equal(out.data, np.tile(layer.bias.data, (4, 1)))
        assert not features.grad.any()

    def test_plan_rejects_out_of_range_nodes(self):
        with pytest.raises(IndexError):
            PreparedEdges(np.array([[0, 5], [1, 1]]), 3)
        with pytest.raises(IndexError):
            PreparedEdges(np.array([[0, 1], [1, 3]]), 3)
        with pytest.raises(IndexError):
            PreparedEdges(np.array([[0, 1], [-1, 1]]), 3)


class TestPlanReuse:
    """The edge plan is built by the object that owns the edge index, on its
    first read, and kept there: a layer pass builds none."""

    def test_passes_build_no_plan(self, monkeypatch):
        rng = np.random.default_rng(3)
        graph_input = graph_input_from_adjacency(
            sp.csr_matrix((rng.random((12, 12)) < 0.3).astype(np.float64))
        )
        layer = GATLayer(4, 3, num_heads=2, rng=rng)
        features = rng.standard_normal((12, 4))
        upstream = rng.standard_normal((12, layer.bias.shape[0]))

        builds = []
        build = PreparedEdges.__init__

        def counting_init(plan, *args):
            builds.append(plan)
            build(plan, *args)

        monkeypatch.setattr(backend_module.PreparedEdges, "__init__", counting_init)
        plan = graph_input.edge_plan
        assert len(builds) == 1 and graph_input.edge_plan is plan
        args = (GATLayer.forward, layer, features, plan, upstream, "relu")
        first = [part.copy() for part in _layer_pass(*args)]
        second = _layer_pass(*args)
        assert len(builds) == 1
        for first_part, second_part in zip(first, second):
            np.testing.assert_array_equal(first_part, second_part)


def test_fused_layer_allocates_no_edge_by_feature_array():
    # Structural guard in place of a timing test: one fused forward + backward
    # (the edge plan built in the trace) holds at most four (N, H·F) arrays —
    # T, the output, its gradient and G_T, never a head-major copy — six
    # (E·H,) float arrays and the two chunked operands of the sampled dot
    # products.  It reads 7.5 MB against that 9.0 MB bound; the head-major
    # layer read 13.8 MB, and the gather/multiply/scatter path peaked above
    # four (E, H, F) temporaries (41 MB).
    nodes, edges, heads, head_dim = 2000, 20_000, 4, 16
    rng = np.random.default_rng(5)
    edge_index = rng.integers(0, nodes, size=(2, edges))
    layer = GATLayer(8, head_dim, num_heads=heads, rng=rng)
    features = Tensor(rng.standard_normal((nodes, 8)), requires_grad=True)
    upstream = Tensor(rng.standard_normal((nodes, layer.bias.shape[0])))
    tracemalloc.start()
    try:
        out = layer(features, PreparedEdges(edge_index, nodes), activation="relu")
        (out * upstream).sum().backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = nodes * heads * head_dim * 8
    per_edge = edges * heads * 8
    chunks = 2 * backend_module._DOT_CHUNK * head_dim * 8
    assert peak < 4 * dense + 6 * per_edge + chunks
