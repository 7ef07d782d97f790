"""GAT does only the work pooling reads, on generated tree batches.

(a) ``LumosModel`` runs its final GAT layer over
    ``TreeBatch.pooled_edge_index`` (the edges that end at a leaf row).  The
    pooled outputs, the loss and every parameter gradient equal those of the
    same layer over the full edge index bit for bit (``assert_array_equal``):
    virtual nodes or none, isolated devices, one device, concatenated and
    averaged heads, 1- to 3-layer encoders, both tasks.
(b) The layer-0 schedule memo: an evaluation pass on the factored input keeps
    its recorded node for the next gradient pass, which takes it over once.  A
    ``fit`` with the memo equals the memo-less run bit for bit (and the
    composite run as tightly as any production run does); the memo misses
    after a parameter rebind and after ``with_initialization``, is gone after
    ``load_state_dict`` and never sits on a hidden layer.  A ``tracemalloc``
    guard holds a GAT training run on a virtual-node batch to the peak of the
    full-edge, memo-less path it replaced.
"""

from __future__ import annotations

import contextlib
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    LDPEmbeddingInitializer,
    LumosConfig,
    LumosSystem,
    TrainerConfig,
    TreeBatch,
    TreeConstructorConfig,
)
from repro.core.trainer import LumosModel
from repro.crypto.ldp import FeatureBounds
from repro.engine import ArtifactStore
from repro.gnn.gat import GATLayer
from repro.graph import generate_facebook_like, split_edges, split_nodes
from repro.nn.layers import Linear
from repro.nn.loss import cross_entropy
from repro.nn.tensor import Tensor, no_grad

from helpers.autograd import zero_grad
from helpers.oracles import dense_features, install_composite_forms
from helpers.tree_cases import canonical_construction, exchange_cases, materialise

TIER1 = dict(max_examples=25, deadline=2000)
WIDE = dict(max_examples=300, deadline=None)


# --------------------------------------------------------------------------- #
# Generated tree batches and models
# --------------------------------------------------------------------------- #
@st.composite
def model_cases(draw, max_devices: int, max_dimension: int):
    """A federation (one device, isolated devices, both layouts) and a model."""
    case = draw(exchange_cases(max_devices, max_dimension, min_devices=1))
    return dict(
        case,
        layers=draw(st.integers(1, 3)),
        heads=draw(st.integers(1, 3)),
        concat=draw(st.booleans()),
        supervised=draw(st.booleans()),
    )


#: Every ugly case at once: device 3 isolated, device 2 kept by nobody,
#: averaged heads over a virtual-node batch, two layers, supervised.
UGLY = dict(
    ids=[0, 1, 2, 3],
    edges=[(0, 1, "both"), (0, 2, "u"), (1, 2, "u")],
    dimension=3,
    use_virtual_nodes=True,
    bounds=(-1.0, 3.0),
    seed=5,
    layers=2,
    heads=2,
    concat=False,
    supervised=True,
)


def _deployment(case):
    """``(environment, construction)`` of a generated case."""
    make_environment, assignment, _ = materialise(case)
    environment = make_environment()
    return environment, canonical_construction(
        environment, assignment, case["use_virtual_nodes"]
    )


def _exchange(case, environment, construction, epsilon: float = 2.0):
    return LDPEmbeddingInitializer(
        epsilon, bounds=FeatureBounds(*case["bounds"]), rng=np.random.default_rng(case["seed"])
    ).run(environment, construction.assignment)


def _batch(case) -> TreeBatch:
    environment, construction = _deployment(case)
    initialization = _exchange(case, environment, construction)
    return TreeBatch.build(environment, construction, initialization, case["dimension"])


def _model(case) -> LumosModel:
    rng = np.random.default_rng(case["seed"])
    heads, classes = case["heads"], 3
    config = TrainerConfig(
        backbone="gat", num_layers=case["layers"], hidden_dim=2 * heads, output_dim=2,
        num_heads=heads,
    )
    model = LumosModel(case["dimension"], classes if case["supervised"] else None, config, rng=rng)
    if case["concat"]:
        # GNNEncoder averages the final layer's heads; swap in one that
        # concatenates them (and a head of its width).
        final = model.encoder.final_layer
        layer = GATLayer(final.in_features, 2, num_heads=heads, concat_heads=True, rng=rng)
        model.encoder.add_module(f"layer_{case['layers'] - 1}", layer)
        if case["supervised"]:
            model.head = Linear(layer.bias.shape[0], classes, rng=rng)
    return model


def _gradient_pass(model, batch, seed):
    """``(output, loss, {parameter: gradient})`` of one training-mode pass."""
    model.train()
    zero_grad(model)
    model.encoder.dropout._rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed + 1)
    if model.head is not None:
        out = model.logits(batch, batch.layer_input)
        mask = rng.random(out.shape[0]) < 0.7
        mask[0] = True
        loss = cross_entropy(out, rng.integers(0, out.shape[1], out.shape[0]), mask=mask)
    else:
        out = model.vertex_embeddings(batch, batch.layer_input)
        loss = (out * Tensor(rng.standard_normal(out.shape))).sum()
    loss.backward()
    return out.data, loss.data, {name: p.grad for name, p in model.named_parameters()}


def _full_edges():
    """The final layer over every edge: the path the pooled one replaced."""
    return mock.patch.object(TreeBatch, "pooled_edge_index", lambda batch: batch.edge_index)


def _check_pooled(case):
    batch = _batch(case)
    pooled = batch.pooled_edge_index()
    ends_at_leaf = np.isin(batch.edge_index[1], batch.leaf_rows)
    np.testing.assert_array_equal(pooled, batch.edge_index[:, ends_at_leaf])
    np.testing.assert_array_equal(np.unique(pooled[1]), np.unique(batch.leaf_rows))
    assert pooled.dtype == np.int64 and pooled.base is None
    assert batch.pooled_edge_index() is pooled

    model = _model(case)
    out, loss, grads = _gradient_pass(model, batch, case["seed"])
    with _full_edges():
        full_out, full_loss, full_grads = _gradient_pass(model, batch, case["seed"])
    np.testing.assert_array_equal(out, full_out)
    np.testing.assert_array_equal(loss, full_loss)
    assert grads.keys() == full_grads.keys()
    for name, grad in grads.items():
        assert grad is not None and full_grads[name] is not None, name
        np.testing.assert_array_equal(grad, full_grads[name], err_msg=name)


class TestPooledFinalLayer:
    @settings(**TIER1)
    @given(model_cases(max_devices=6, max_dimension=4))
    @example(UGLY)
    @example(dict(UGLY, use_virtual_nodes=False, concat=True, supervised=False))
    @example(dict(UGLY, ids=[0], edges=[], layers=1))
    def test_pooled_rows_loss_and_gradients_equal_the_full_edge_layer(self, case):
        _check_pooled(case)

    @pytest.mark.slow
    @settings(**WIDE)
    @given(model_cases(max_devices=25, max_dimension=12))
    def test_pooled_final_layer_wide(self, case):
        _check_pooled(case)

    def test_rebinding_carries_the_pooled_edges_over(self):
        environment, construction = _deployment(UGLY)
        batch = TreeBatch.build(
            environment, construction, _exchange(UGLY, environment, construction), 3
        )
        pooled = batch.pooled_edge_index()
        rebound = batch.with_initialization(_exchange(UGLY, environment, construction, 0.7))
        assert rebound.pooled_edge_index() is pooled


# --------------------------------------------------------------------------- #
# (b) the layer-0 schedule memo
# --------------------------------------------------------------------------- #
def _memoless_forward(layer, features, edge_index, activation=None):
    """``GATLayer.forward`` without the memo: the layer recomputed every pass."""
    return layer._attend(features, np.asarray(edge_index, dtype=np.int64), activation)


def _config(epochs: int, **trainer) -> LumosConfig:
    return LumosConfig(
        constructor=TreeConstructorConfig(mcmc_iterations=30),
        trainer=TrainerConfig(epochs=epochs, backbone="gat", **trainer),
        seed=0,
    )


@pytest.fixture(scope="module")
def graph():
    return generate_facebook_like(seed=3, num_nodes=120)


def _fit(graph, task, epochs=4):
    """``(exact outcomes, losses, layer-0 computations)`` of one ``fit``."""
    system = LumosSystem(graph, _config(epochs), store=ArtifactStore())
    attend = mock.patch.object(
        GATLayer, "_attend", autospec=True, side_effect=GATLayer._attend
    )
    with attend as calls:
        if task == "supervised":
            result = system.run_supervised(split_nodes(graph, seed=0))
            history = result.history
            metrics = (result.test_accuracy, history.val_accuracy)
        else:
            result = system.run_unsupervised(split_edges(graph, seed=0))
            metrics = (result.test_auc, result.history.val_auc)
    layer_0 = [
        call for call in calls.call_args_list if call.args[0].in_features == graph.num_features
    ]
    environment = system.environment
    outcomes = (metrics, environment.ledger.summary(environment.num_devices), system.rng.bit_generator.state)
    return outcomes, result.history.losses, len(layer_0)


@pytest.mark.parametrize("task", ["supervised", "unsupervised"])
def test_fit_with_the_memo_equals_the_run_without(graph, task, monkeypatch):
    epochs = 4
    outcomes, losses, computed = _fit(graph, task, epochs)
    # Epoch 0's gradient pass and every evaluation pass compute layer 0; the
    # gradient passes of epochs 1.. take over the previous evaluation's node.
    assert computed == epochs + 1

    monkeypatch.setattr(GATLayer, "forward", _memoless_forward)
    plain_outcomes, plain_losses, plain_computed = _fit(graph, task, epochs)
    assert plain_computed == 2 * epochs
    assert outcomes == plain_outcomes
    assert [loss.hex() for loss in losses] == [loss.hex() for loss in plain_losses]

    # The composite graphs reorder float additions: equal outcomes, losses to
    # the tolerance every production == composite run is held to.
    install_composite_forms(monkeypatch)
    composite_outcomes, composite_losses, _ = _fit(graph, task, epochs)
    assert outcomes == composite_outcomes
    np.testing.assert_allclose(losses, composite_losses, rtol=1e-9, atol=1e-12)


def _evaluate(layer, features, edge_index) -> Tensor:
    """An evaluation pass; returns the node the layer kept for the next one."""
    with no_grad():
        evaluated = layer(features, edge_index, activation="relu")
    kept = layer._memo[1]
    assert not evaluated.requires_grad and kept.requires_grad
    assert evaluated.data is kept.data
    return kept


def test_the_memo_is_taken_over_once_and_only_on_its_own_key():
    environment, construction = _deployment(UGLY)
    batch = TreeBatch.build(
        environment, construction, _exchange(UGLY, environment, construction), 3
    )
    layer = GATLayer(3, 2, num_heads=2, rng=np.random.default_rng(0))
    features, edges = batch.layer_input, batch.edge_index

    kept = _evaluate(layer, features, edges)
    assert layer(features, edges, activation="relu") is kept
    assert layer._memo is None
    assert layer(features, edges, activation="relu") is not kept  # used once

    # Misses: another activation, any rebound parameter, a rebound batch.
    kept = _evaluate(layer, features, edges)
    assert layer(features, edges) is not kept and layer._memo is None
    for parameter in layer.parameters():
        kept = _evaluate(layer, features, edges)
        parameter.data = parameter.data.copy()
        recomputed = layer(features, edges, activation="relu")
        assert recomputed is not kept and layer._memo is None, parameter.name
        np.testing.assert_array_equal(recomputed.data, kept.data)
    kept = _evaluate(layer, features, edges)
    rebound = batch.with_initialization(_exchange(UGLY, environment, construction, 0.7))
    assert layer(rebound.layer_input, rebound.edge_index, activation="relu") is not kept

    # A tensor input (any hidden layer) is never memoised.
    with no_grad():
        layer(Tensor(dense_features(features)), edges, activation="relu")
    assert layer._memo is None


def test_the_memo_sits_on_layer_0_only_and_load_state_dict_drops_it():
    batch = _batch(UGLY)
    model = _model(dict(UGLY, layers=3))
    model.eval()
    with no_grad():
        model.logits(batch, batch.layer_input)
    memos = [model.encoder._modules[f"layer_{index}"]._memo for index in range(3)]
    assert memos[0] is not None and memos[1:] == [None, None]
    model.load_state_dict(model.state_dict())
    assert model.encoder.layer_0._memo is None


def _training_peak(graph, parent: bool) -> int:
    """Traced peak of a two-epoch GAT run, above the set-up level."""
    split = split_nodes(graph, seed=0)
    with contextlib.ExitStack() as stack:
        if parent:
            stack.enter_context(_full_edges())
            stack.enter_context(mock.patch.object(GATLayer, "forward", _memoless_forward))
        trainer = LumosSystem(graph, _config(epochs=2), store=ArtifactStore()).trainer()
        assert trainer.construction.used_virtual_nodes
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            trainer.train_supervised(graph.labels, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak - start


def test_a_gat_training_run_peaks_no_higher_than_the_full_edge_memoless_one():
    # The memo keeps layer 0's recorded node from an evaluation pass to the
    # next gradient pass, which would have built the same node, and the
    # pooled final layer records only the edges that end at a leaf.  Together
    # they must not raise the peak: it reads 40.2 MB against 45.0 MB (43.8 MB
    # with a memo on every layer in evaluation mode).
    graph = generate_facebook_like(seed=3, num_nodes=400)
    assert _training_peak(graph, parent=False) <= _training_peak(graph, parent=True)
