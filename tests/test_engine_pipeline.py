"""Tests for the staged execution engine (pipeline, store, stage reuse).

The engine's core contract: a cache hit is observably identical to a cold
computation — same results bit-for-bit, same RNG stream afterwards, same
communication-ledger contents.  These tests pin that contract against the
eager "seed" pipeline (manual constructor / initializer / trainer calls).
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.oracles import dense_features, tree_batch_reference

from repro.core import (
    LDPEmbeddingInitializer,
    LumosSystem,
    TreeBasedGNNTrainer,
    TreeBatch,
    TreeConstructor,
    TreeConstructorConfig,
    default_config_for,
)
from repro.crypto.ldp import FeatureBounds
from repro.engine import ArtifactStore
from repro.engine.fingerprint import fingerprint_graph, fingerprint_value
from repro.engine.store import StoredArtifact
from repro.federation import FederatedEnvironment
from repro.graph import generate_facebook_like, split_edges, split_nodes

STAGES = ("partition", "construction", "ldp_draws", "ldp_init", "tree_batch")


@pytest.fixture(scope="module")
def graph():
    return generate_facebook_like(seed=11, num_nodes=90)


@pytest.fixture(scope="module")
def config():
    return default_config_for("facebook").with_mcmc_iterations(25).with_epochs(8)


def _seed_pipeline_supervised(graph, config, split):
    """The eager pipeline exactly as the pre-engine LumosSystem ran it."""
    normalized = graph.normalized_features(0.0, 1.0)
    rng = np.random.default_rng(config.seed)
    environment = FederatedEnvironment.from_graph(normalized, seed=config.seed)
    construction = TreeConstructor(config.constructor, rng=rng).construct(environment)
    initializer = LDPEmbeddingInitializer(
        epsilon=config.trainer.epsilon, bounds=FeatureBounds(0.0, 1.0), rng=rng
    )
    initialization = initializer.run(environment, construction.assignment)
    trainer = TreeBasedGNNTrainer(
        environment, construction, initialization, config.trainer, rng=rng
    )
    _, history = trainer.train_supervised(normalized.labels, split)
    return history, environment


class TestSeededEquivalence:
    def test_engine_matches_seed_pipeline_bit_for_bit(self, graph, config):
        split = split_nodes(graph, seed=0)
        seed_history, seed_environment = _seed_pipeline_supervised(graph, config, split)

        system = LumosSystem(graph, config, store=ArtifactStore())
        result = system.run_supervised(split)

        assert result.test_accuracy == seed_history.test_accuracy
        assert result.best_val_accuracy == seed_history.best_val_accuracy
        assert result.history.losses == seed_history.losses
        assert result.history.val_accuracy == seed_history.val_accuracy
        # Ledger accounting is part of the contract too.
        assert system.environment.ledger.summary(
            system.environment.num_devices
        ) == seed_environment.ledger.summary(seed_environment.num_devices)

    def test_warm_store_reproduces_cold_run_exactly(self, graph, config):
        split = split_nodes(graph, seed=0)
        store = ArtifactStore()
        systems = [LumosSystem(graph, config, store=store) for _ in range(2)]
        cold, warm = (system.run_supervised(split) for system in systems)

        assert warm.test_accuracy == cold.test_accuracy
        assert warm.history.losses == cold.history.losses
        cold_ledger, warm_ledger = (
            system.environment.ledger.summary(system.environment.num_devices)
            for system in systems
        )
        assert warm_ledger == cold_ledger
        for stage in STAGES:
            assert store.summary()[stage] == {"hits": 1, "misses": 1}, stage

    def test_warm_store_reproduces_cold_run_unsupervised(self, graph, config):
        edge_split = split_edges(graph, seed=0)
        store = ArtifactStore()
        cold = LumosSystem(graph, config, store=store).run_unsupervised(edge_split)
        warm = LumosSystem(graph, config, store=store).run_unsupervised(edge_split)
        assert warm.test_auc == cold.test_auc
        assert warm.history.losses == cold.history.losses


class TestSweepReuse:
    def test_epsilon_sweep_runs_construction_exactly_once(self, graph, config):
        split = split_nodes(graph, seed=0)
        store = ArtifactStore()
        epsilons = [0.5, 1.0, 2.0, 3.0, 4.0]
        sweep = {}
        for epsilon in epsilons:
            system = LumosSystem(graph, config.with_epsilon(epsilon), store=store)
            sweep[epsilon] = system.run_supervised(split).test_accuracy

        summary = store.summary()
        once = {"hits": len(epsilons) - 1, "misses": 1}
        assert summary["construction"] == once
        assert summary["partition"] == once
        # the draws and the batch structure are epsilon-independent: computed
        # once, hit on every later sweep point
        assert summary["ldp_draws"] == once
        assert summary["tree_batch"] == once
        # epsilon changes the thresholding, so ldp_init recomputes per point
        assert summary["ldp_init"] == {"hits": 0, "misses": len(epsilons)}

        # Reused stages must not leak state between points: every point equals
        # an isolated cold run.
        for epsilon in (epsilons[0], epsilons[-1]):
            isolated = LumosSystem(
                graph, config.with_epsilon(epsilon), store=ArtifactStore()
            ).run_supervised(split)
            assert isolated.test_accuracy == sweep[epsilon]

    def test_backbone_sweep_reuses_everything_up_to_training(self, graph, config):
        split = split_nodes(graph, seed=0)
        store = ArtifactStore()
        for backbone in ("gcn", "gat"):
            LumosSystem(graph, config.with_backbone(backbone), store=store).run_supervised(split)
        for stage in STAGES:
            assert store.summary()[stage] == {"hits": 1, "misses": 1}, stage


class TestTreeBatchVectorized:
    @pytest.mark.parametrize("virtual_nodes", [True, False])
    def test_matches_generic_builder(self, graph, virtual_nodes):
        normalized = graph.normalized_features(0.0, 1.0)
        environment = FederatedEnvironment.from_graph(normalized, seed=0)
        constructor = TreeConstructor(
            TreeConstructorConfig(mcmc_iterations=15, use_virtual_nodes=virtual_nodes),
            rng=np.random.default_rng(0),
        )
        construction = constructor.construct(environment)
        initializer = LDPEmbeddingInitializer(epsilon=2.0, rng=np.random.default_rng(1))
        initialization = initializer.run(environment, construction.assignment)

        fast = TreeBatch.build(
            environment, construction, initialization, normalized.num_features
        )
        generic = tree_batch_reference(
            environment, construction, initialization, normalized.num_features
        )
        assert fast is not None
        assert fast.num_nodes == generic.num_nodes
        assert fast.num_vertices == generic.num_vertices
        np.testing.assert_array_equal(fast.leaf_rows, generic.leaf_rows)
        np.testing.assert_array_equal(fast.leaf_vertices, generic.leaf_vertices)
        np.testing.assert_array_equal(fast.edge_index, generic.edge_index)
        np.testing.assert_array_equal(dense_features(fast.layer_input), dense_features(generic.layer_input))
        assert (fast.adjacency != generic.adjacency).nnz == 0

    def test_isolated_vertices_get_single_center_leaf(self):
        # Vertex 3 has no edges at all; its tree is a single centre leaf.
        graph_edges = np.array([[0, 1], [1, 2]])
        from repro.graph import Graph

        graph = Graph(
            num_nodes=4,
            edges=graph_edges,
            features=np.random.default_rng(0).random((4, 5)),
        )
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        construction = TreeConstructor(
            TreeConstructorConfig(mcmc_iterations=5), rng=np.random.default_rng(0)
        ).construct(environment)
        initialization = LDPEmbeddingInitializer(
            epsilon=2.0, rng=np.random.default_rng(1)
        ).run(environment, construction.assignment)
        fast = TreeBatch.build(environment, construction, initialization, 5)
        generic = tree_batch_reference(environment, construction, initialization, 5)
        np.testing.assert_array_equal(dense_features(fast.layer_input), dense_features(generic.layer_input))
        np.testing.assert_array_equal(fast.leaf_rows, generic.leaf_rows)
        np.testing.assert_array_equal(fast.leaf_vertices, generic.leaf_vertices)


class TestArtifactStore:
    def test_lru_eviction(self):
        store = ArtifactStore(max_entries=2)
        store.put("a", StoredArtifact(value=1))
        store.put("b", StoredArtifact(value=2))
        assert store.get("a") is not None  # refresh "a"
        store.put("c", StoredArtifact(value=3))
        assert "b" not in store
        assert "a" in store and "c" in store
        assert len(store) == 2

    def test_counters_and_clear(self):
        store = ArtifactStore()
        store.record_miss("x")
        store.record_hit("x")
        store.record_hit("x")
        assert store.summary() == {"x": {"hits": 2, "misses": 1}}
        store.clear()
        assert store.summary() == {}
        assert len(store) == 0

    def test_a_system_without_a_store_gets_a_private_one(self, graph, config):
        first, second = LumosSystem(graph, config), LumosSystem(graph, config)
        assert first.store is not second.store
        assert len(first.store) == len(second.store) == 1  # its own partition

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_entries=0)


class TestFingerprints:
    def test_graph_fingerprint_distinguishes_content(self, graph):
        other = generate_facebook_like(seed=12, num_nodes=90)
        assert fingerprint_graph(graph) == fingerprint_graph(graph)
        assert fingerprint_graph(graph) != fingerprint_graph(other)

    def test_config_fingerprint_changes_with_fields(self):
        base = default_config_for("facebook")
        assert fingerprint_value(base.constructor) == fingerprint_value(base.constructor)
        assert fingerprint_value(base.constructor) != fingerprint_value(
            base.without_tree_trimming().constructor
        )

    def test_unknown_stage_rejected(self, graph, config):
        system = LumosSystem(graph, config, store=ArtifactStore())
        with pytest.raises(KeyError):
            system.advance("no-such-stage")


#: The five stage keys of ``generate_facebook_like(seed=11, num_nodes=90)``
#: under the module's config at epsilon 4, as the store holds them.  A spill
#: file is named by its key and a pickled artifact is valid only under it, so
#: these strings changing is a change of ``DiskSpillStore._FORMAT_VERSION``'s
#: contract as much as a layout change is.
GOLDEN_KEYS = {
    "partition": "partition/98737744f8310b1c687e413f/seed=0",
    "construction": (
        "construction/partition/98737744f8310b1c687e413f/seed=0/5e4451c215e63656d7b6ace5"
    ),
    "ldp_draws": (
        "ldpdraws/construction/partition/98737744f8310b1c687e413f/seed=0/5e4451c215e63656d7b6ace5"
    ),
    "ldp_init": (
        "ldp/ldpdraws/construction/partition/98737744f8310b1c687e413f/seed=0/"
        "5e4451c215e63656d7b6ace5/epsilon=4.0"
    ),
    "tree_batch": (
        "batch/construction/partition/98737744f8310b1c687e413f/seed=0/"
        "5e4451c215e63656d7b6ace5/d=128"
    ),
}


class TestGoldenKeys:
    def test_gcn_and_gat_store_exactly_the_golden_keys(self, graph, config):
        # The backbone is in no key: both systems share all five entries.
        store = ArtifactStore()
        for backbone in ("gcn", "gat"):
            point = config.with_epsilon(4.0).with_backbone(backbone)
            LumosSystem(graph, point, store=store).advance("tree_batch")
        assert len(store) == len(GOLDEN_KEYS)
        assert all(key in store for key in GOLDEN_KEYS.values())
        assert store.summary() == {stage: {"hits": 1, "misses": 1} for stage in GOLDEN_KEYS}

    def test_artifact_keys_are_the_golden_keys(self, graph, config):
        from repro.core.lumos import artifact_keys

        system = LumosSystem(graph, config.with_epsilon(4.0), store=ArtifactStore())
        assert artifact_keys(system.graph, system.config) == GOLDEN_KEYS


class TestRngRestoration:
    def test_rng_state_identical_after_hit_and_miss(self, graph, config):
        store = ArtifactStore()
        cold = LumosSystem(graph, config, store=store)
        cold.initialize_embeddings()
        cold_state = cold.rng.bit_generator.state

        warm = LumosSystem(graph, config, store=store)
        warm.initialize_embeddings()
        warm_state = warm.rng.bit_generator.state
        assert cold_state == warm_state
