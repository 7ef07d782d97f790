"""The sparse, columnar feature path against its oracles, on generated inputs.

LDP threshold -> ``TreeBatch`` -> first layer never build a dense
``(rows, d)`` matrix; each stage is held to the scalar / per-node / dense
computation it replaced:

(a) columnar ``draw`` + ``threshold`` vs one scalar encode + recover per
    message (bit-equal rows, equal transcript, equal RNG stream);
(b) ``TreeBatch.build`` vs the per-node ``tree_batch_reference``
    (bit-equal dense view), and ``with_initialization`` vs a fresh build;
(c) the first GCN / GAT layer on the factored operand vs the ``reference``
    backend on the dense view (``rtol = 1e-10``).

The generated assignments include isolated vertices, senders nobody selected,
workload-1 senders (all ``d`` positions released), pairs whose sender never
released (a midpoint row) and both local-graph layouts.
Two ``tracemalloc`` guards hold the structure: no dense feature matrix on the
production path, and no growth across repeated runs.
"""

from __future__ import annotations

import gc
import tracemalloc

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
from repro.core.constructor import CanonicalLocalGraphs, TreeConstructionResult
from repro.core.workload import Assignment
from repro.crypto.ldp import FeatureBounds
from repro.engine import ArtifactStore, DiskSpillStore, StoredArtifact
from repro.federation import FederatedEnvironment
from repro.gnn.gat import GATLayer
from repro.gnn.gcn import GCNLayer
from repro.graph import generate_facebook_like, split_nodes
from repro.graph.ego import EgoNetwork
from repro.nn.backend import use_backend
from repro.nn.tensor import Tensor

from helpers.oracles import ldp_exchange_reference, tree_batch_reference
from helpers.rng_contract import assert_stream_contract, replay_ldp_draws


# --------------------------------------------------------------------------- #
# Generated cases
# --------------------------------------------------------------------------- #
#: Which endpoint keeps an edge ``(u, v)``: ``u``, ``v`` or both (Eq. 10).
KEEPERS = ("u", "v", "both")

#: Every ugly case at once: vertex 4 isolated, 3 selected by nobody, 1 a
#: workload-1 sender, 0 a workload-0 sender (one bin), and the first
#: exchanged pair missing from the exchange (midpoint row).
UGLY = dict(
    ids=[0, 1, 2, 3, 4],
    edges=[(0, 1, "v"), (0, 2, "v"), (1, 2, "v"), (2, 3, "v")],
    dimension=4,
    use_virtual_nodes=True,
    drop_first_pair=True,
    bounds=(0.0, 1.0),
    seed=11,
)


@st.composite
def exchange_cases(draw, max_devices: int, max_dimension: int):
    devices = draw(st.integers(2, max_devices))
    pairs = st.tuples(st.integers(0, devices - 1), st.integers(0, devices - 1)).filter(
        lambda pair: pair[0] < pair[1]
    )
    edges = draw(st.lists(pairs, max_size=3 * devices, unique=True))
    return dict(
        ids=list(range(devices)),
        edges=[(u, v, draw(st.sampled_from(KEEPERS))) for u, v in edges],
        dimension=draw(st.integers(1, max_dimension)),
        use_virtual_nodes=draw(st.booleans()),
        drop_first_pair=draw(st.booleans()),
        bounds=draw(st.sampled_from([(0.0, 1.0), (-1.0, 3.0)])),
        seed=draw(st.integers(0, 2**16)),
    )


def _materialise(case):
    """``(environment factory, assignment, bounds)`` of a generated case."""
    ids = case["ids"]
    rng = np.random.default_rng(case["seed"])
    features = rng.random((len(ids), case["dimension"])) * (rng.random((len(ids), 1)) < 0.8)
    neighbors = {device_id: [] for device_id in ids}
    selected = {device_id: [] for device_id in ids}
    for u, v, keeper in case["edges"]:
        u, v = ids[u], ids[v]
        neighbors[u].append(v)
        neighbors[v].append(u)
        if keeper in ("u", "both"):
            selected[u].append(v)
        if keeper in ("v", "both"):
            selected[v].append(u)
    low, high = case["bounds"]

    def environment() -> FederatedEnvironment:
        return FederatedEnvironment.from_partition(
            {
                device_id: EgoNetwork(
                    center=device_id,
                    neighbors=neighbors[device_id],
                    feature=low + (high - low) * features[index],
                )
                for index, device_id in enumerate(ids)
            },
            seed=0,
        )

    return environment, Assignment.from_lists(selected), FeatureBounds(low, high)


def _construction(environment, assignment, use_virtual_nodes) -> TreeConstructionResult:
    return TreeConstructionResult(
        assignment=assignment,
        local_graphs=CanonicalLocalGraphs(assignment, environment.devices, use_virtual_nodes),
        used_virtual_nodes=use_virtual_nodes,
    )


def _without_first_pair(assignment: Assignment) -> Assignment:
    """``assignment`` minus its first ``(receiver, sender)`` pair, if it has one."""
    lists = assignment.as_lists()
    for receiver in sorted(lists):
        if lists[receiver]:
            lists[receiver] = lists[receiver][1:]
            break
    return Assignment.from_lists(lists)


# --------------------------------------------------------------------------- #
# (a) columnar threshold vs one scalar encode + recover per message
# --------------------------------------------------------------------------- #
def _check_exchange(case):
    make_environment, assignment, bounds = _materialise(case)
    epsilon = 0.5 + case["seed"] % 7

    oracle_environment, oracle_rng = make_environment(), np.random.default_rng(case["seed"])
    expected = ldp_exchange_reference(oracle_environment, assignment, epsilon, bounds, oracle_rng)

    environment, rng = make_environment(), np.random.default_rng(case["seed"])
    initializer = LDPEmbeddingInitializer(epsilon, bounds=bounds, rng=rng)
    workloads = [max(assignment.workload(d), 1) for d in environment.devices]
    requested = [
        sum(d in chosen for chosen in assignment.selected.values()) for d in environment.devices
    ]
    draws = assert_stream_contract(
        lambda _: initializer.draw(environment, assignment),
        rng,
        lambda twin: replay_ldp_draws(twin, workloads, requested, case["dimension"]),
    )
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    result = assert_stream_contract(lambda _: initializer.threshold(environment, draws), rng)

    received = {
        (receiver, sender): row
        for receiver, rows in result.received_features.items()
        for sender, row in rows.items()
    }
    assert received.keys() == expected.keys()
    for pair, row in received.items():
        np.testing.assert_array_equal(row, expected[pair])  # bit for bit
    receivers, senders, rows = result.packed()
    assert rows.shape == (len(expected), case["dimension"])
    for receiver, sender, row in zip(receivers.tolist(), senders.tolist(), rows):
        np.testing.assert_array_equal(row, expected[(receiver, sender)])
    assert result.messages_sent == len(expected)

    ledger, oracle_ledger = environment.ledger, oracle_environment.ledger
    assert ledger.message_records() == oracle_ledger.message_records()
    np.testing.assert_array_equal(
        ledger.per_device_compute(environment.num_devices),
        oracle_ledger.per_device_compute(environment.num_devices),
    )


# --------------------------------------------------------------------------- #
# (b) vectorized batch vs the per-node builder; rebind vs fresh build
# --------------------------------------------------------------------------- #
def _batches(case):
    """``(vectorized, generic, environment, construction, draws, initialization)`` of a case."""
    make_environment, assignment, bounds = _materialise(case)
    environment = make_environment()
    initializer = LDPEmbeddingInitializer(2.0, bounds=bounds, rng=np.random.default_rng(case["seed"]))
    exchanged = _without_first_pair(assignment) if case["drop_first_pair"] else assignment
    draws = initializer.draw(environment, exchanged)
    initialization = initializer.threshold(environment, draws)
    construction = _construction(environment, assignment, case["use_virtual_nodes"])
    args = (environment, construction, initialization, case["dimension"])
    batches = TreeBatch.build(*args), tree_batch_reference(*args)
    return (*batches, environment, construction, draws, initialization)


def _check_batch(case):
    vectorized, generic, environment, construction, draws, initialization = _batches(case)
    assert vectorized is not None
    for name in ("leaf_rows", "leaf_vertices", "edge_index",
                 "neighbor_rows", "neighbor_receivers", "neighbor_senders"):
        np.testing.assert_array_equal(getattr(vectorized, name), getattr(generic, name))
    np.testing.assert_array_equal(vectorized.layer_input.rows, generic.layer_input.rows)
    assert vectorized.device_slices == generic.device_slices
    assert (vectorized.adjacency != generic.adjacency).nnz == 0
    np.testing.assert_array_equal(vectorized.features, generic.features)  # bit for bit
    assert vectorized.features.shape == (vectorized.num_nodes, case["dimension"])

    # The dense view is Eq. 25: own feature, received feature (midpoint where
    # the sender never released), zeros on virtual nodes.
    received = initialization.received_features
    midpoint = np.full(case["dimension"], sum(case["bounds"]) / 2.0)
    for device_id, (offset, _) in vectorized.device_slices.items():
        for node in construction.local_graphs[device_id].nodes:
            row = vectorized.features[offset + node.local_id]
            if node.vertex is None:
                assert not row.any()
            elif node.vertex == device_id:
                np.testing.assert_array_equal(row, environment.devices[device_id].ego.feature)
            else:
                np.testing.assert_array_equal(row, received.get(device_id, {}).get(node.vertex, midpoint))

    other = LDPEmbeddingInitializer(
        0.7, bounds=FeatureBounds(*case["bounds"]), rng=np.random.default_rng(0)
    ).threshold(environment, draws)
    rebound = vectorized.with_initialization(other)
    fresh = TreeBatch.build(environment, construction, other, case["dimension"])
    np.testing.assert_array_equal(rebound.features, fresh.features)
    assert rebound.adjacency is vectorized.adjacency
    assert rebound.layer_input.rows is vectorized.layer_input.rows


# --------------------------------------------------------------------------- #
# (c) first layer on the factored operand vs the reference backend, dense
# --------------------------------------------------------------------------- #
def _first_layer(backend, layer, features, structure, upstream):
    layer.zero_grad()
    with use_backend(backend):
        out = layer(features, structure, activation="relu")
        (out * Tensor(upstream)).sum().backward()
    return out.data, layer.weight.grad, layer.bias.grad


def _check_first_layer(case):
    batch = _batches(case)[0]
    rng = np.random.default_rng(case["seed"])
    for layer, structure in (
        (GCNLayer(case["dimension"], 3, rng=rng), batch.adjacency),
        (GATLayer(case["dimension"], 2, num_heads=2, rng=rng), batch.edge_index),
    ):
        layer.bias.data = rng.standard_normal(layer.bias.data.shape)
        upstream = rng.standard_normal((batch.num_nodes, layer.bias.data.shape[0]))
        dense = [
            part.copy()
            for part in _first_layer("reference", layer, Tensor(batch.features), structure, upstream)
        ]
        factored = _first_layer("numpy", layer, batch.layer_input, structure, upstream)
        for factored_part, dense_part in zip(factored, dense):
            np.testing.assert_allclose(factored_part, dense_part, rtol=1e-10, atol=1e-12)


TIER1 = dict(max_examples=25, deadline=1000)
WIDE = dict(max_examples=400, deadline=None)


class TestGeneratedParity:
    @settings(**TIER1)
    @given(exchange_cases(max_devices=7, max_dimension=6))
    @example(UGLY)
    def test_columnar_threshold_matches_scalar_messages(self, case):
        _check_exchange(case)

    @settings(**TIER1)
    @given(exchange_cases(max_devices=7, max_dimension=6))
    @example(UGLY)
    @example(dict(UGLY, use_virtual_nodes=False))
    def test_vectorized_batch_matches_per_node_builder(self, case):
        _check_batch(case)

    @settings(**TIER1)
    @given(exchange_cases(max_devices=7, max_dimension=6))
    @example(UGLY)
    @example(dict(UGLY, use_virtual_nodes=False))
    def test_first_layer_matches_reference_on_dense_view(self, case):
        _check_first_layer(case)

    @pytest.mark.slow
    @settings(**WIDE)
    @given(exchange_cases(max_devices=30, max_dimension=40))
    def test_feature_path_wide(self, case):
        _check_exchange(case)
        _check_batch(case)
        _check_first_layer(case)

    def test_offline_endpoints_leave_drop_records(self):
        """Under an availability mask the bulk exchange is the per-message one."""
        make_environment, assignment, bounds = _materialise(UGLY)
        environment = make_environment()
        environment.set_availability(np.array([True, False, True, True, True]))
        LDPEmbeddingInitializer(2.0, bounds=bounds, rng=np.random.default_rng(0)).run(
            environment, assignment
        )
        # Device 1 (offline) sends to 2 and receives from 0: its own message
        # is suppressed, the one addressed to it is charged and undelivered.
        assert [(m.sender, m.recipient) for m in environment.ledger.dropped] == [(0, 1), (1, 2)]
        assert environment.ledger.total_messages() == 3


# --------------------------------------------------------------------------- #
# Structural guards (tracemalloc, not timing)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def guard_graph():
    return generate_facebook_like(seed=3, num_nodes=400)


def _config(epochs: int, **trainer) -> LumosConfig:
    return LumosConfig(
        constructor=TreeConstructorConfig(mcmc_iterations=30),
        trainer=TrainerConfig(epochs=epochs, **trainer),
        seed=0,
    )


@pytest.mark.parametrize("backbone", ["gcn", "gat"])
def test_one_layer_encoder_trains_on_the_factored_input(backbone):
    # Without a hidden layer the factored operand reaches the final layer
    # itself, which the folded GCN head (it wants a hidden *tensor*) must not
    # take over.
    graph = generate_facebook_like(seed=3, num_nodes=120)
    split = split_nodes(graph, seed=0)
    config = _config(epochs=4, num_layers=1, backbone=backbone)
    runs = {}
    for backend in ("numpy", "reference"):
        with use_backend(backend):
            runs[backend] = LumosSystem(graph, config, store=ArtifactStore()).run_supervised(split)
    assert runs["numpy"].test_accuracy == runs["reference"].test_accuracy
    np.testing.assert_allclose(
        runs["numpy"].history.losses, runs["reference"].history.losses, rtol=1e-9, atol=1e-12
    )


def test_spill_files_of_the_previous_layout_miss(tmp_path, monkeypatch):
    # The LDP and tree-batch artifacts changed their pickled layout under
    # unchanged stage keys: a spill directory written before must miss.
    monkeypatch.setattr(DiskSpillStore, "_FORMAT_VERSION", 2)
    old = DiskSpillStore(tmp_path, max_bytes=1)
    old.put("key", StoredArtifact(value=np.arange(8)))
    monkeypatch.undo()
    store = DiskSpillStore(tmp_path, max_bytes=1)
    assert store.get("key") is None and store.integrity_failures == 1


def test_no_dense_feature_matrix_between_ldp_draws_and_training(guard_graph):
    # From the end of ldp_draws on, the numpy backend may not allocate a
    # (num_nodes, d) or (messages, d) float64 array: the traced peak above the
    # starting level stays below ONE dense feature matrix through batch
    # assembly and trainer set-up (the dense path read 2.5x), and below 1.2x
    # through two epochs, whose (num_nodes, hidden) temporaries are the rest
    # (reads 1.00x; 1.51x while every first gradient was copied and interior
    # gradients lived until the graph died; dense path: 4x).
    system = LumosSystem(guard_graph, _config(epochs=2), store=ArtifactStore())
    split = split_nodes(system.graph, seed=0)
    system.advance("ldp_draws")
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        system.initialize_embeddings()
        batch = system.tree_batch()
        trainer = system.trainer()
        _, setup_peak = tracemalloc.get_traced_memory()
        trainer.train_supervised(system.graph.labels, split)
        _, train_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = batch.num_nodes * system.graph.num_features * 8
    assert setup_peak - start < 1.0 * dense
    assert train_peak - start < 1.2 * dense
    assert batch._features is None  # nobody asked for the dense view


def test_repeated_runs_leave_live_memory_flat(guard_graph):
    # Every prepared matrix used to be immortal in the backend's cache (the
    # cached value referenced its own anchor): live bytes grew by the batch's
    # operators on every run.
    split = split_nodes(guard_graph, seed=0)
    live = []
    tracemalloc.start()
    try:
        for _ in range(3):
            LumosSystem(guard_graph, _config(epochs=1), store=ArtifactStore()).run_supervised(split)
            gc.collect()
            live.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert live[2] - live[1] < 64 * 1024
