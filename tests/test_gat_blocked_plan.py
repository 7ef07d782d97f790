"""The head-blocked GAT plan (``PreparedEdges.blocked``) against ``np.add.at``
oracles, on generated edge lists.

The edge lists have destinations no edge reaches (the shape of
``TreeBatch.pooled_edge_plan``), duplicate edges, self loops, unsorted
destinations and no edge at all, for 1, 2 and 4 heads.
``helpers.oracles.block_positions`` maps every position of a plan back to
the caller's ``(edge, head)``.  Through it the structure, the edge softmax
and its adjoint, the destination and source sums, the chunked sampled dot
products and both aggregation matrices are held to the straightforward
computation, and the fused layer to the composite graph, with concatenated
and averaged heads.  Each head's share of a blocked plan is also held, bit
for bit, to the one-head plan over the same destination-sorted edges: the
per-head layer's sums and products, in its order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gnn.gat import GATLayer
from repro.nn import backend as backend_module
from repro.nn.backend import PreparedEdges
from repro.nn.tensor import Tensor

from helpers.autograd import zero_grad
from helpers.oracles import ReferenceKernels, block_positions, gat_layer_forward, segment_softmax

TIER1 = dict(max_examples=40, deadline=None)


@st.composite
def edge_lists(draw, max_nodes: int = 8, max_edges: int = 20):
    nodes = draw(st.integers(1, max_nodes))
    edges = draw(st.integers(0, max_edges))
    ids = st.integers(0, nodes - 1)
    # Destinations come from a subset of the rows: the others have no in-edge.
    reached = draw(st.lists(ids, min_size=1, max_size=nodes, unique=True))
    src = draw(st.lists(ids, min_size=edges, max_size=edges))
    dst = draw(st.lists(st.sampled_from(reached), min_size=edges, max_size=edges))
    if edges and draw(st.booleans()):  # a duplicate edge and a self loop
        src += [src[0], dst[0]]
        dst += [dst[0], dst[0]]
    return dict(
        nodes=nodes,
        edge_index=np.array([src, dst], dtype=np.int64).reshape(2, -1),
        heads=draw(st.sampled_from([1, 2, 4])),
        seed=draw(st.integers(0, 2**16)),
    )


NO_EDGES = dict(nodes=3, edge_index=np.zeros((2, 0), dtype=np.int64), heads=2, seed=0)
POOLED = dict(  # rows 0 and 3 have no in-edge; 1 -> 2 twice
    nodes=4, edge_index=np.array([[1, 1, 0, 2, 3], [2, 2, 1, 2, 1]]), heads=4, seed=1
)


def _plan(case):
    """``(blocked plan, (E, H) -> block-order index pair, src, dst)``."""
    edge_index, nodes, heads = case["edge_index"], case["nodes"], case["heads"]
    plan = PreparedEdges(edge_index, nodes).blocked(heads)
    return plan, block_positions(edge_index, nodes, heads), edge_index[0], edge_index[1]


class TestStructure:
    @settings(**TIER1)
    @given(edge_lists())
    @example(NO_EDGES)
    @example(POOLED)
    def test_rows_and_columns_are_the_heads_of_each_edge(self, case):
        plan, (edge, head), src, dst = _plan(case)
        heads, rows = case["heads"], case["nodes"] * case["heads"]
        np.testing.assert_array_equal(plan.indices, src[edge] * heads + head)
        block_rows = np.repeat(np.arange(rows), np.diff(plan.indptr))
        np.testing.assert_array_equal(block_rows, dst[edge] * heads + head)

        data = np.random.default_rng(case["seed"]).standard_normal(edge.shape[0])
        dense = np.zeros((rows, rows))
        np.add.at(dense, (dst[edge] * heads + head, src[edge] * heads + head), data)
        np.testing.assert_allclose(plan.matrix(data).toarray(), dense, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            plan.node_matrix(data).toarray(),
            dense.reshape(case["nodes"], heads, rows).sum(axis=1),
            rtol=1e-12,
            atol=1e-15,
        )

    def test_the_plan_is_built_once_per_head_count(self):
        edges = PreparedEdges(POOLED["edge_index"], POOLED["nodes"])
        assert edges.blocked(4) is edges.blocked(4)
        assert edges.blocked(2) is not edges.blocked(4)
        assert edges.blocked(2).counts is edges.counts


class TestEdgeKernels:
    @settings(**TIER1)
    @given(edge_lists())
    @example(NO_EDGES)
    @example(POOLED)
    def test_sums_and_softmax_match_add_at(self, case):
        plan, (edge, head), src, dst = _plan(case)
        nodes, heads = case["nodes"], case["heads"]
        # Logits of order 1e3 overflow exp unless each block is shifted by
        # its own max, so the softmax pins the per-block max.
        values = 1e3 * np.random.default_rng(case["seed"]).standard_normal((src.shape[0], heads))
        blocked = values[edge, head]

        by_dst = np.zeros((nodes, heads))
        np.add.at(by_dst, dst, values)
        np.testing.assert_allclose(plan.segment_sum(blocked), by_dst.ravel(), rtol=1e-12)
        by_src = np.zeros((nodes, heads))
        np.add.at(by_src, src, values)
        np.testing.assert_allclose(plan.source_sum(blocked), by_src.ravel(), rtol=1e-12)

        shifted = values - ReferenceKernels().segment_max(values, dst, nodes)[dst]
        denominator = np.zeros((nodes, heads))
        np.add.at(denominator, dst, np.exp(shifted))
        expected = np.exp(shifted) / (denominator[dst] + 1e-16)
        attention = plan.softmax(blocked.copy())
        assert np.isfinite(attention).all()
        np.testing.assert_allclose(attention, expected[edge, head], rtol=1e-12)
        reached = plan.segment_sum(attention).reshape(nodes, heads)[np.unique(dst)]
        np.testing.assert_allclose(reached, 1.0, atol=1e-12)

    @settings(**TIER1)
    @given(edge_lists())
    @example(NO_EDGES)
    @example(POOLED)
    def test_softmax_adjoint_matches_the_composite_graph(self, case):
        plan, (edge, head), src, dst = _plan(case)
        rng = np.random.default_rng(case["seed"])
        logits = Tensor(rng.standard_normal((src.shape[0], case["heads"])), requires_grad=True)
        weights = rng.standard_normal(logits.shape)
        attention = segment_softmax(logits, dst, case["nodes"])
        (attention * Tensor(weights)).sum().backward()

        fused = plan.softmax(logits.data[edge, head])
        np.testing.assert_allclose(fused, attention.data[edge, head], atol=1e-12)
        grad = plan.softmax_backward(fused, weights[edge, head])
        np.testing.assert_allclose(grad, logits.grad[edge, head], atol=1e-12)

    @settings(**TIER1)
    @given(edge_lists(), st.sampled_from([1, 3]))
    @example(NO_EDGES, 3)
    @example(POOLED, 3)
    def test_every_sum_adds_in_the_per_head_order(self, case, head_dim):
        # The blocked layout's claim to bit-identity: each head's block run,
        # sum and product is the one-head plan's over the destination-sorted
        # edges, term for term (assert_array_equal, not a tolerance).
        plan, (edge, head), src, dst = _plan(case)
        nodes, heads = case["nodes"], case["heads"]
        single = PreparedEdges(case["edge_index"], nodes).blocked(1)
        rng = np.random.default_rng(case["seed"])
        values = rng.standard_normal((src.shape[0], heads))
        transformed = rng.standard_normal((nodes, heads, head_dim))
        grads = rng.standard_normal((nodes, heads, head_dim))
        blocked = values[edge, head]
        order = np.argsort(dst, kind="stable")
        sums = [plan.segment_sum(blocked), plan.source_sum(blocked)]
        sums = [total.reshape(nodes, heads) for total in sums]
        attention = plan.softmax(blocked.copy())
        matrix = plan.matrix(attention)
        aggregated = (matrix @ transformed.reshape(-1, head_dim)).reshape(transformed.shape)
        adjoint = (matrix.T @ grads.reshape(-1, head_dim)).reshape(grads.shape)
        for h in range(heads):
            run = values[order, h]
            np.testing.assert_array_equal(sums[0][:, h], single.segment_sum(run))
            np.testing.assert_array_equal(sums[1][:, h], single.source_sum(run))
            head_attention = single.softmax(run.copy())
            np.testing.assert_array_equal(attention[head == h], head_attention)
            head_matrix = single.matrix(head_attention)
            np.testing.assert_array_equal(aggregated[:, h], head_matrix @ transformed[:, h])
            np.testing.assert_array_equal(adjoint[:, h], head_matrix.T @ grads[:, h])

    @settings(**TIER1)
    @given(edge_lists(), st.sampled_from([1, 3]), st.integers(1, 7))
    @example(POOLED, 3, 1)
    def test_sampled_dots_chunk_without_changing_a_bit(self, case, head_dim, chunk):
        plan, (edge, head), src, dst = _plan(case)
        nodes, heads = case["nodes"], case["heads"]
        rng = np.random.default_rng(case["seed"])
        values = rng.standard_normal((nodes * heads, head_dim))
        columns = src[edge] * heads + head
        per_block_row = (rng.standard_normal((nodes * heads, head_dim)), dst[edge] * heads + head)
        per_node = (rng.standard_normal((nodes, head_dim)), dst[edge])  # shared by the heads
        for grads, rows in (per_block_row, per_node):
            whole = plan.sampled_dots(grads, values)
            np.testing.assert_allclose(
                whole, (grads[rows] * values[columns]).sum(axis=1), rtol=1e-12, atol=1e-14
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(backend_module, "_DOT_CHUNK", chunk)
                np.testing.assert_array_equal(plan.sampled_dots(grads, values), whole)


@st.composite
def layer_cases(draw):
    case = draw(edge_lists(max_nodes=7, max_edges=16))
    return dict(
        case,
        concat_heads=draw(st.booleans()),
        activation=draw(st.sampled_from([None, "relu"])),
    )


@settings(**TIER1)
@given(layer_cases())
@example(dict(NO_EDGES, concat_heads=False, activation=None))
@example(dict(POOLED, concat_heads=True, activation="relu"))
@example(dict(POOLED, concat_heads=False, activation="relu"))
def test_layer_matches_the_composite_graph(case):
    rng = np.random.default_rng(case["seed"])
    layer = GATLayer(3, 2, num_heads=case["heads"], concat_heads=case["concat_heads"], rng=rng)
    layer.bias.data = rng.standard_normal(layer.bias.shape)
    features_data = rng.standard_normal((case["nodes"], 3))
    upstream = rng.standard_normal((case["nodes"], layer.bias.shape[0]))
    plan = PreparedEdges(case["edge_index"], case["nodes"])
    results = []
    for forward, edges in ((GATLayer.forward, plan), (gat_layer_forward, case["edge_index"])):
        zero_grad(layer)
        features = Tensor(features_data.copy(), requires_grad=True)
        out = forward(layer, features, edges, activation=case["activation"])
        (out * Tensor(upstream)).sum().backward()
        results.append(
            [out.data, features.grad] + [parameter.grad.copy() for parameter in layer.parameters()]
        )
    for fused, composite in zip(*results):
        np.testing.assert_allclose(fused, composite, atol=1e-10)
