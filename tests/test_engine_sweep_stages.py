"""Tests for the sweep-aware engine stages and the disk-spill store.

Covers the three reuse mechanisms this layer adds:

* the ``ldp_draws`` stage — epsilon-independent randomness drawn once per
  construction and re-thresholded per sweep point;
* the epsilon-free ``tree_batch`` key — the cached structure re-bound to the
  current point's LDP exchange on replay;
* :class:`~repro.engine.store.DiskSpillStore` — byte-budgeted memory with
  ``.npz`` spill files that another process (or store instance) can reload.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.oracles import dense_features, received_features, tree_batch_reference

from repro.core import (
    LDPEmbeddingInitializer,
    LumosSystem,
    TreeBatch,
    TreeConstructor,
    TreeConstructorConfig,
    default_config_for,
)
from repro.crypto.ldp import FeatureBounds
from repro.engine import ArtifactStore, DiskSpillStore
from repro.engine.store import StoredArtifact
from repro.federation import FederatedEnvironment
from repro.graph import generate_facebook_like, split_nodes


@pytest.fixture(scope="module")
def graph():
    return generate_facebook_like(seed=11, num_nodes=80)


@pytest.fixture(scope="module")
def config():
    return default_config_for("facebook").with_mcmc_iterations(20).with_epochs(6)


def _constructed(graph, seed=0):
    normalized = graph.normalized_features(0.0, 1.0)
    environment = FederatedEnvironment.from_graph(normalized, seed=0)
    construction = TreeConstructor(
        TreeConstructorConfig(mcmc_iterations=15), rng=np.random.default_rng(seed)
    ).construct(environment)
    return normalized, environment, construction


class TestDrawThresholdSplit:
    def test_run_equals_draw_then_threshold(self, graph):
        normalized, env_a, construction_a = _constructed(graph)
        _, env_b, construction_b = _constructed(graph)
        assert construction_a.assignment.as_lists() == construction_b.assignment.as_lists()

        eager = LDPEmbeddingInitializer(
            epsilon=2.0, bounds=FeatureBounds(0.0, 1.0), rng=np.random.default_rng(5)
        ).run(env_a, construction_a.assignment)

        split_initializer = LDPEmbeddingInitializer(
            epsilon=2.0, bounds=FeatureBounds(0.0, 1.0), rng=np.random.default_rng(5)
        )
        draws = split_initializer.draw(env_b, construction_b.assignment)
        split = split_initializer.threshold(env_b, draws)

        assert eager.messages_sent == split.messages_sent
        split_received = received_features(split)
        for receiver, per_sender in received_features(eager).items():
            for sender, feature in per_sender.items():
                np.testing.assert_array_equal(feature, split_received[receiver][sender])
        assert env_a.ledger.message_records() == env_b.ledger.message_records()

    def test_draws_are_epsilon_independent(self, graph):
        _, environment, construction = _constructed(graph)
        draws_low = LDPEmbeddingInitializer(
            epsilon=0.5, rng=np.random.default_rng(3)
        ).draw(environment, construction.assignment)
        draws_high = LDPEmbeddingInitializer(
            epsilon=4.0, rng=np.random.default_rng(3)
        ).draw(environment, construction.assignment)
        for column in ("workloads", "offsets", "receivers"):
            np.testing.assert_array_equal(getattr(draws_low, column), getattr(draws_high, column))
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(
                getattr(draws_low.uniforms, part), getattr(draws_high.uniforms, part)
            )

    def test_threshold_consumes_no_randomness(self, graph):
        _, environment, construction = _constructed(graph)
        initializer = LDPEmbeddingInitializer(epsilon=2.0, rng=np.random.default_rng(4))
        draws = initializer.draw(environment, construction.assignment)
        state = initializer.rng.bit_generator.state
        initializer.threshold(environment, draws)
        assert initializer.rng.bit_generator.state == state


class TestTreeBatchRebind:
    def test_with_initialization_matches_fresh_build(self, graph):
        _, environment, construction = _constructed(graph)
        shared_rng = np.random.default_rng(6)
        initializer = LDPEmbeddingInitializer(epsilon=1.0, rng=shared_rng)
        draws = initializer.draw(environment, construction.assignment)
        first = initializer.threshold(environment, draws)
        second = LDPEmbeddingInitializer(
            epsilon=3.0, rng=np.random.default_rng(0)
        ).threshold(environment, draws)

        dim = graph.num_features
        batch = TreeBatch.build(environment, construction, first, dim)
        rebound = batch.with_initialization(second)
        fresh = TreeBatch.build(environment, construction, second, dim)

        np.testing.assert_array_equal(dense_features(rebound.layer_input), dense_features(fresh.layer_input))
        # Structure is shared, not copied.
        assert rebound.adjacency is batch.adjacency
        assert rebound.edge_index is batch.edge_index
        np.testing.assert_array_equal(rebound.leaf_rows, fresh.leaf_rows)

    @pytest.mark.parametrize("first", ["gat", "gcn"])
    def test_rebound_batches_share_what_any_of_them_derived(self, graph, config, first):
        # The edge index, the GAT edge plans and the prepared operators are
        # built on first read, once per construction: a GAT sweep point
        # re-binding a stored batch reads the cold run's, and after a GCN run
        # (which reads no edge index) the batch it stored sees what the GAT
        # point built, as Fig. 4 runs GCN and then GAT on one construction.
        store = ArtifactStore()
        split = split_nodes(graph, seed=0)
        cold = LumosSystem(graph, config.with_backbone(first), store=store)
        cold.run_supervised(split)
        warm = LumosSystem(graph, config.with_backbone("gat").with_epsilon(4.0), store=store)
        warm.run_supervised(split)
        assert store.summary()["tree_batch"] == {"hits": 1, "misses": 1}
        cold_batch, warm_batch = cold.tree_batch(), warm.tree_batch()
        assert warm_batch is not cold_batch
        assert warm_batch.edge_index is cold_batch.edge_index
        assert warm_batch.edge_plan is cold_batch.edge_plan
        assert warm_batch.pooled_edge_plan() is cold_batch.pooled_edge_plan()
        assert warm_batch.propagation is cold_batch.propagation
        assert warm_batch.pool_operator() is cold_batch.pool_operator()

    def test_generic_builder_also_carries_recipe(self, graph):
        _, environment, construction = _constructed(graph)
        initialization = LDPEmbeddingInitializer(
            epsilon=2.0, rng=np.random.default_rng(7)
        ).run(environment, construction.assignment)
        generic = tree_batch_reference(
            environment, construction, initialization, graph.num_features
        )
        vectorized = TreeBatch.build(
            environment, construction, initialization, graph.num_features
        )
        np.testing.assert_array_equal(
            generic.neighbor_receivers, vectorized.neighbor_receivers
        )
        np.testing.assert_array_equal(
            generic.neighbor_senders, vectorized.neighbor_senders
        )


class TestDiskSpillStore:
    def test_spills_over_byte_budget_and_reloads(self, tmp_path):
        store = DiskSpillStore(tmp_path, max_bytes=4096)
        payloads = {
            f"key-{i}": StoredArtifact(value=np.arange(512, dtype=np.float64))
            for i in range(8)
        }
        for key, artifact in payloads.items():
            store.put(key, artifact)
        assert store.spill_writes > 0
        assert store.in_memory_bytes <= 4096 or len(store) == 1
        for key, artifact in payloads.items():
            loaded = store.get(key)
            assert loaded is not None
            np.testing.assert_array_equal(loaded.value, artifact.value)
        assert store.spill_loads > 0

    def test_contains_covers_disk(self, tmp_path):
        store = DiskSpillStore(tmp_path, max_bytes=1024)
        store.put("a", StoredArtifact(value=np.zeros(1024)))
        store.put("b", StoredArtifact(value=np.zeros(1024)))
        assert "a" in store and "b" in store

    def test_count_eviction_spills_instead_of_dropping(self, tmp_path):
        store = DiskSpillStore(tmp_path, max_bytes=1 << 30, max_entries=2)
        for i in range(4):
            store.put(f"key-{i}", StoredArtifact(value=i))
        for i in range(4):
            assert store.get(f"key-{i}") is not None, i

    def test_cross_process_reuse_via_directory(self, graph, config, tmp_path):
        split = split_nodes(graph, seed=0)
        first_store = DiskSpillStore(tmp_path, max_bytes=1)  # spill everything
        cold_system = LumosSystem(graph, config, store=first_store)
        cold = cold_system.run_supervised(split)
        assert first_store.spill_writes > 0

        # A fresh store instance (a new process in real deployments) finds the
        # artifacts on disk: every stage hits, results are bit-identical.
        second_store = DiskSpillStore(tmp_path, max_bytes=1)
        warm_system = LumosSystem(graph, config, store=second_store)
        warm = warm_system.run_supervised(split)
        assert warm.test_accuracy == cold.test_accuracy
        assert warm.history.losses == cold.history.losses
        assert warm_system.environment.ledger.summary(
            warm_system.environment.num_devices
        ) == cold_system.environment.ledger.summary(cold_system.environment.num_devices)
        for stage in ("partition", "construction", "ldp_draws", "ldp_init", "tree_batch"):
            assert second_store.summary()[stage] == {"hits": 1, "misses": 0}, stage
        assert second_store.spill_loads > 0

    def test_matches_in_memory_store_results(self, graph, config):
        split = split_nodes(graph, seed=0)
        memory = LumosSystem(graph, config, store=ArtifactStore()).run_supervised(split)
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            spilled = LumosSystem(
                graph, config, store=DiskSpillStore(directory, max_bytes=1)
            ).run_supervised(split)
        assert spilled.test_accuracy == memory.test_accuracy
        assert spilled.history.losses == memory.history.losses

    def test_clear_removes_spill_files(self, tmp_path):
        store = DiskSpillStore(tmp_path, max_bytes=1)
        store.put("a", StoredArtifact(value=np.zeros(64)))
        assert store.spill_writes > 0 and "a" in store
        store.clear()
        assert "a" not in store
        assert store.get("a") is None
        assert list(tmp_path.glob("*.npz")) == []

    def test_corrupt_spill_file_degrades_to_miss(self, tmp_path):
        store = DiskSpillStore(tmp_path, max_bytes=1)
        store.put("a", StoredArtifact(value=np.arange(64)))
        path = store._path_for("a")
        assert path.exists()
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])  # truncated archive
        assert store.get("a") is None
        assert not path.exists()  # unreadable file dropped for repair
        # A later eviction of the same key can re-publish it.
        store.put("a", StoredArtifact(value=np.arange(64)))
        loaded = store.get("a")
        assert loaded is not None
        np.testing.assert_array_equal(loaded.value, np.arange(64))

    def test_stale_format_version_degrades_to_miss(self, tmp_path):
        import io

        store = DiskSpillStore(tmp_path, max_bytes=1)
        store.put("a", StoredArtifact(value=np.arange(8)))
        path = store._path_for("a")
        # Rewrite the spill file with a foreign format version.
        buffer = io.BytesIO()
        np.savez(
            buffer,
            version=np.int64(999),
            key=np.frombuffer(b"a", dtype=np.uint8),
            payload=np.zeros(4, dtype=np.uint8),
        )
        path.write_bytes(buffer.getvalue())
        assert store.get("a") is None
        assert not path.exists()  # stale file dropped, key can re-spill

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DiskSpillStore(tmp_path, max_bytes=0)
