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

from helpers.oracles import tree_batch_reference

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
from repro.nn.backend import use_backend


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
        assert eager.bytes_sent == split.bytes_sent
        for receiver, per_sender in eager.received_features.items():
            for sender, feature in per_sender.items():
                np.testing.assert_array_equal(
                    feature, split.received_features[receiver][sender]
                )
        assert env_a.ledger.message_records() == env_b.ledger.message_records()

    def test_draws_are_epsilon_independent(self, graph):
        _, environment, construction = _constructed(graph)
        draws_low = LDPEmbeddingInitializer(
            epsilon=0.5, rng=np.random.default_rng(3)
        ).draw(environment, construction.assignment)
        draws_high = LDPEmbeddingInitializer(
            epsilon=4.0, rng=np.random.default_rng(3)
        ).draw(environment, construction.assignment)
        for column in ("sender_ids", "workloads", "bins", "offsets", "receivers", "uniforms"):
            np.testing.assert_array_equal(getattr(draws_low, column), getattr(draws_high, column))

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

        np.testing.assert_array_equal(rebound.features, fresh.features)
        # Structure is shared, not copied.
        assert rebound.adjacency is batch.adjacency
        assert rebound.edge_index is batch.edge_index
        np.testing.assert_array_equal(rebound.leaf_rows, fresh.leaf_rows)

    def test_tree_batch_key_follows_the_active_backend(self, graph, config):
        # The artifact carries operators prepared by whichever backend built
        # it, so runs under different ambient backends must not share it.
        split = split_nodes(graph, seed=0)
        shared = ArtifactStore()
        with use_backend("reference"):
            LumosSystem(graph, config, store=shared).run_supervised(split)
        on_shared = LumosSystem(graph, config, store=shared).run_supervised(split)
        summary = shared.summary()
        assert summary["tree_batch"] == {"hits": 0, "misses": 2}
        assert summary["construction"] == {"hits": 1, "misses": 1}

        fresh = LumosSystem(graph, config, store=ArtifactStore()).run_supervised(split)
        assert on_shared.test_accuracy == fresh.test_accuracy
        assert on_shared.history.losses == fresh.history.losses

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
        np.testing.assert_array_equal(generic.neighbor_rows, vectorized.neighbor_rows)
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
        cold = LumosSystem(graph, config, store=first_store).run_supervised(split)
        assert first_store.spill_writes > 0

        # A fresh store instance (a new process in real deployments) finds the
        # artifacts on disk: every stage hits, results are bit-identical.
        second_store = DiskSpillStore(tmp_path, max_bytes=1)
        warm = LumosSystem(graph, config, store=second_store).run_supervised(split)
        assert warm.test_accuracy == cold.test_accuracy
        assert warm.history.losses == cold.history.losses
        assert warm.ledger_summary == cold.ledger_summary
        for stage in ("partition", "construction", "ldp_draws", "ldp_init", "tree_batch"):
            assert second_store.hit_count(stage) == 1, stage
            assert second_store.miss_count(stage) == 0, stage
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
