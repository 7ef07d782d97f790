"""Tests for LDP embedding initialisation, the tree-based trainer and LumosSystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EpochCostModel,
    LDPEmbeddingInitializer,
    LumosConfig,
    LumosSystem,
    TrainerConfig,
    TreeBasedGNNTrainer,
    TreeBatch,
    TreeConstructor,
    TreeConstructorConfig,
    default_config_for,
)
from repro.baselines import (
    train_centralized_supervised,
    train_centralized_unsupervised,
    train_lpgnn_supervised,
    train_naive_fedgnn_supervised,
    train_naive_fedgnn_unsupervised,
)
from repro.core.trainer import roc_auc_from_embeddings
from repro.engine import ArtifactStore
from repro.federation import FederatedEnvironment, MessageKind
from repro.graph import generate_facebook_like, split_edges, split_nodes
from repro.nn.backend import use_backend


@pytest.fixture(scope="module")
def tiny_graph():
    return generate_facebook_like(seed=5, num_nodes=120)


@pytest.fixture(scope="module")
def prepared(tiny_graph):
    """Environment + construction + LDP initialisation for the tiny graph."""
    graph = tiny_graph.normalized_features(0.0, 1.0)
    environment = FederatedEnvironment.from_graph(graph, seed=0)
    constructor = TreeConstructor(TreeConstructorConfig(mcmc_iterations=40),
                                  rng=np.random.default_rng(0))
    construction = constructor.construct(environment)
    initializer = LDPEmbeddingInitializer(epsilon=2.0, rng=np.random.default_rng(1))
    initialization = initializer.run(environment, construction.assignment)
    return graph, environment, construction, initialization


class TestEmbeddingInitialization:
    def test_every_selected_neighbor_receives_a_feature(self, prepared):
        _, environment, construction, initialization = prepared
        for receiver, selected in construction.assignment.selected.items():
            for sender in selected:
                assert sender in initialization.received_features[receiver]

    def test_messages_match_selection_count(self, prepared):
        _, _, construction, initialization = prepared
        assert initialization.messages_sent == construction.assignment.total_selected_edges()
        assert initialization.bytes_sent > 0
        assert initialization.epsilon == 2.0

    def test_received_features_stay_in_recovery_range(self, prepared):
        graph, _, _, initialization = prepared
        for per_receiver in initialization.received_features.values():
            for feature in per_receiver.values():
                assert feature.shape == (graph.num_features,)
                assert np.all(np.isfinite(feature))

    def test_raw_features_never_transmitted(self, prepared):
        """The exact raw feature vector must not appear in any received message."""
        graph, _, _, initialization = prepared
        for receiver, per_receiver in initialization.received_features.items():
            for sender, feature in per_receiver.items():
                assert not np.allclose(feature, graph.features[sender])

    def test_ledger_records_feature_exchange(self, prepared):
        _, environment, _, initialization = prepared
        count = environment.ledger.total_messages([MessageKind.FEATURE_EXCHANGE])
        assert count == initialization.messages_sent

    def test_validation(self):
        with pytest.raises(ValueError):
            LDPEmbeddingInitializer(epsilon=0.0)


class TestTreeBatch:
    def test_union_graph_shapes(self, prepared):
        graph, environment, construction, initialization = prepared
        batch = TreeBatch.build(environment, construction, initialization, graph.num_features)
        assert batch.num_nodes == construction.total_tree_nodes()
        assert batch.num_vertices == graph.num_nodes
        assert batch.features.shape == (batch.num_nodes, graph.num_features)
        assert batch.adjacency.shape == (batch.num_nodes, batch.num_nodes)

    def test_leaf_mapping_covers_every_vertex(self, prepared):
        graph, environment, construction, initialization = prepared
        batch = TreeBatch.build(environment, construction, initialization, graph.num_features)
        assert set(np.unique(batch.leaf_vertices)) == set(range(graph.num_nodes))

    def test_center_leaves_carry_raw_features(self, prepared):
        graph, environment, construction, initialization = prepared
        batch = TreeBatch.build(environment, construction, initialization, graph.num_features)
        for device_id, (offset, _) in batch.device_slices.items():
            local_graph = construction.local_graphs[device_id]
            for node in local_graph.nodes:
                if node.vertex == device_id:
                    np.testing.assert_allclose(
                        batch.features[offset + node.local_id], graph.features[device_id]
                    )

    def test_virtual_nodes_have_zero_features(self, prepared):
        graph, environment, construction, initialization = prepared
        batch = TreeBatch.build(environment, construction, initialization, graph.num_features)
        for device_id, (offset, _) in batch.device_slices.items():
            local_graph = construction.local_graphs[device_id]
            for node in local_graph.nodes:
                if node.vertex is None:
                    np.testing.assert_allclose(batch.features[offset + node.local_id], 0.0)

    def test_no_edges_between_different_trees(self, prepared):
        graph, environment, construction, initialization = prepared
        batch = TreeBatch.build(environment, construction, initialization, graph.num_features)
        slices = sorted(batch.device_slices.values())
        owner_of = np.zeros(batch.num_nodes, dtype=np.int64)
        for index, (offset, size) in enumerate(slices):
            owner_of[offset : offset + size] = index
        coo = batch.adjacency.tocoo()
        off_diagonal = coo.row != coo.col
        assert np.all(owner_of[coo.row[off_diagonal]] == owner_of[coo.col[off_diagonal]])


class TestTrainer:
    def _trainer(self, prepared, **overrides) -> TreeBasedGNNTrainer:
        graph, environment, construction, initialization = prepared
        config = TrainerConfig(epochs=25, **overrides)
        return TreeBasedGNNTrainer(
            environment, construction, initialization, config, rng=np.random.default_rng(0)
        )

    def test_supervised_training_learns(self, prepared):
        graph = prepared[0]
        trainer = self._trainer(prepared)
        split = split_nodes(graph, seed=0)
        _, history = trainer.train_supervised(graph.labels, split)
        assert len(history.losses) == 25
        assert history.losses[-1] < history.losses[0]
        assert history.test_accuracy > 1.5 / graph.num_classes  # clearly above chance
        assert history.best_val_accuracy >= max(history.val_accuracy) - 1e-9

    def test_unsupervised_training_beats_chance(self, prepared):
        graph = prepared[0]
        trainer = self._trainer(prepared)
        edge_split = split_edges(graph, seed=0)
        _, history = trainer.train_unsupervised(edge_split, epochs=25)
        assert history.test_auc > 0.5
        assert len(history.losses) == 25

    @pytest.mark.parametrize("task", ["supervised", "unsupervised"])
    def test_epochs_argument_is_resolved_once_at_entry(self, prepared, task):
        from repro import obs

        graph = prepared[0]
        trainer = self._trainer(prepared)
        if task == "supervised":
            args = (graph.labels, split_nodes(graph, seed=0))
            train = trainer.train_supervised
        else:
            args = (split_edges(graph, seed=0),)
            train = trainer.train_unsupervised
        # An explicit zero is a zero-epoch run, not "use the config default",
        # and the span reports the count that actually ran.
        with obs.tracing() as tracer:
            _, history = train(*args, epochs=0)
        assert history.losses == []
        (span,) = [s for s in tracer.spans if s["name"] == f"trainer.train_{task}"]
        assert span["attributes"]["epochs"] == 0
        with pytest.raises(ValueError, match="non-negative"):
            train(*args, epochs=-1)

    def test_gat_backbone_runs(self, prepared):
        graph = prepared[0]
        trainer = self._trainer(prepared, backbone="gat")
        split = split_nodes(graph, seed=0)
        _, history = trainer.train_supervised(graph.labels, split, epochs=5)
        assert len(history.losses) == 5
        assert np.isfinite(history.losses[-1])

    def test_communication_profile_supervised(self, prepared):
        graph, environment, construction, _ = prepared
        trainer = self._trainer(prepared)
        profile = trainer.communication_profile("supervised")
        rounds = profile["per_device_rounds"]
        assert rounds.shape == (graph.num_nodes,)
        # Total sends + receives = 2 * total selections, plus one loss round each.
        expected_total = 2 * construction.assignment.total_selected_edges() + graph.num_nodes
        assert int(rounds.sum()) == expected_total

    def test_communication_profile_unsupervised_is_larger(self, prepared):
        trainer = self._trainer(prepared)
        supervised = trainer.communication_profile("supervised")["per_device_rounds"].mean()
        unsupervised = trainer.communication_profile("unsupervised")["per_device_rounds"].mean()
        assert unsupervised > supervised
        with pytest.raises(ValueError):
            trainer.communication_profile("other")

    def test_simulated_epoch_time_positive_and_monotone_in_cost(self, prepared):
        graph, environment, construction, initialization = prepared
        cheap = TreeBasedGNNTrainer(
            environment, construction, initialization, TrainerConfig(epochs=5),
            cost_model=EpochCostModel(compute_per_node=0.001, time_per_round=0.001),
        )
        expensive = TreeBasedGNNTrainer(
            environment, construction, initialization, TrainerConfig(epochs=5),
            cost_model=EpochCostModel(compute_per_node=0.1, time_per_round=0.1),
        )
        assert 0 < cheap.simulated_epoch_time() < expensive.simulated_epoch_time()

    def test_roc_auc_helper_perfect_separation(self):
        embeddings = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        positives = np.array([[0, 1]])
        negatives = np.array([[0, 2]])
        assert roc_auc_from_embeddings(embeddings, positives, negatives) == 1.0


BASELINES = {
    "centralized_supervised": train_centralized_supervised,
    "centralized_unsupervised": train_centralized_unsupervised,
    "lpgnn_supervised": train_lpgnn_supervised,
    "naive_fedgnn_supervised": train_naive_fedgnn_supervised,
    "naive_fedgnn_unsupervised": train_naive_fedgnn_unsupervised,
}
ENTRY_POINTS = ["lumos_supervised", "lumos_unsupervised", *BASELINES]


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
class TestEpochsBoundary:
    """The seven training entry points share one loop, so one boundary."""

    @pytest.fixture()
    def train(self, prepared, entry_point):
        """``train(epochs)`` -> the entry point's history / result."""
        graph, environment, construction, initialization = prepared
        supervised = entry_point.endswith("_supervised")
        split = split_nodes(graph, seed=0) if supervised else split_edges(graph, seed=0)
        if entry_point in BASELINES:
            return lambda epochs: BASELINES[entry_point](graph, split, epochs=epochs, seed=0)

        def lumos(epochs):
            trainer = TreeBasedGNNTrainer(
                environment, construction, initialization, TrainerConfig(),
                rng=np.random.default_rng(0),
            )
            if supervised:
                return trainer.train_supervised(graph.labels, split, epochs=epochs)[1]
            return trainer.train_unsupervised(split, epochs=epochs)[1]

        return lumos

    def test_negative_epochs_are_rejected(self, train):
        with pytest.raises(ValueError, match="epochs must be non-negative"):
            train(-3)

    def test_zero_epochs_report_the_untrained_model(self, train, entry_point, monkeypatch):
        from repro.nn.optim import Adam

        result = train(0)
        per_epoch = {name: value for name, value in vars(result).items() if isinstance(value, list)}
        assert "losses" in per_epoch
        assert all(value == [] for value in per_epoch.values()), per_epoch
        # With the optimizer frozen the model stays untrained, so the test
        # metric read from an epoch's kept output must be the zero-epoch one.
        monkeypatch.setattr(Adam, "step", lambda self: None)
        frozen = train(2)
        assert len(frozen.losses) == 2
        metric = "test_accuracy" if entry_point.endswith("_supervised") else "test_auc"
        assert getattr(result, metric) == getattr(frozen, metric)


class TestLumosSystem:
    def test_supervised_end_to_end(self, tiny_graph):
        config = default_config_for("facebook").with_mcmc_iterations(30).with_epochs(20)
        system = LumosSystem(tiny_graph, config)
        result = system.run_supervised(split_nodes(tiny_graph, seed=0))
        assert 0.0 <= result.test_accuracy <= 1.0
        assert result.test_accuracy > 1.0 / tiny_graph.num_classes
        assert result.communication_rounds_per_device > 0
        assert result.simulated_epoch_time > 0
        assert result.construction.max_workload() <= int(tiny_graph.degrees().max())

    def test_reference_backend_run_equals_the_numpy_run(self, tiny_graph):
        """End to end, the oracle backend differs from the production one
        only in the rounding of the per-epoch losses (the two build different
        autograd graphs); tests/test_nn_backend.py pins the layers."""
        config = default_config_for("facebook").with_mcmc_iterations(30).with_epochs(12)
        split = split_nodes(tiny_graph, seed=0)
        outcomes, losses = {}, {}
        for backend in ("numpy", "reference"):
            with use_backend(backend):
                system = LumosSystem(tiny_graph, config, store=ArtifactStore())
                result = system.run_supervised(split)
            outcomes[backend] = (
                result.test_accuracy,
                result.best_val_accuracy,
                result.history.train_accuracy,
                result.history.val_accuracy,
                result.ledger_summary,
                system.rng.bit_generator.state,
            )
            losses[backend] = result.history.losses
        assert outcomes["numpy"] == outcomes["reference"]
        np.testing.assert_allclose(
            losses["numpy"], losses["reference"], rtol=1e-9, atol=1e-12
        )
        assert len(losses["numpy"]) == 12

    def test_unsupervised_end_to_end(self, tiny_graph):
        config = default_config_for("lastfm").with_mcmc_iterations(30).with_epochs(15)
        system = LumosSystem(tiny_graph, config)
        result = system.run_unsupervised(split_edges(tiny_graph, seed=0))
        assert 0.0 <= result.test_auc <= 1.0

    def test_pipeline_stages_are_cached(self, tiny_graph):
        config = default_config_for("facebook").with_mcmc_iterations(10).with_epochs(5)
        system = LumosSystem(tiny_graph, config)
        assert system.construct_trees() is system.construct_trees()
        assert system.initialize_embeddings() is system.initialize_embeddings()
        assert system.trainer() is system.trainer()

    def test_supervised_requires_labels(self, tiny_graph):
        from repro.graph import Graph

        unlabeled = Graph(num_nodes=tiny_graph.num_nodes, edges=tiny_graph.edges,
                          features=tiny_graph.features, labels=None)
        system = LumosSystem(unlabeled, default_config_for("facebook").with_epochs(2))
        with pytest.raises(ValueError):
            system.run_supervised(split_nodes(tiny_graph, seed=0))

    def test_summary_and_workloads(self, tiny_graph):
        config = default_config_for("facebook").with_mcmc_iterations(10).with_epochs(2)
        system = LumosSystem(tiny_graph, config)
        workloads = system.workload_distribution()
        assert workloads.shape == (tiny_graph.num_nodes,)
        summary = system.summary()
        assert {"num_devices", "max_workload", "secure_comparisons"} <= set(summary)

    def test_config_helpers(self):
        config = LumosConfig()
        assert config.with_backbone("gat").trainer.backbone == "gat"
        assert config.with_epsilon(0.5).trainer.epsilon == 0.5
        assert config.with_epochs(7).trainer.epochs == 7
        assert config.with_mcmc_iterations(3).constructor.mcmc_iterations == 3
        assert not config.without_virtual_nodes().constructor.use_virtual_nodes
        assert not config.without_tree_trimming().constructor.use_tree_trimming
        assert config.with_seed(9).seed == 9
        assert default_config_for("facebook").constructor.mcmc_iterations == 1000
        assert default_config_for("lastfm").constructor.mcmc_iterations == 300

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(backbone="sage")
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            TreeConstructorConfig(mcmc_iterations=-5)


class TestZeroDevices:
    """An empty graph constructs and balances; the stages that need a feature
    row say so instead of dying in a numpy reshape."""

    @pytest.fixture()
    def empty(self):
        from repro.graph import Graph

        graph = Graph(
            num_nodes=0, edges=np.zeros((0, 2), dtype=np.int64), features=np.zeros((0, 4))
        )
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        construction = TreeConstructor(
            TreeConstructorConfig(mcmc_iterations=5), rng=np.random.default_rng(0)
        ).construct(environment)
        assert construction.max_workload() == 0
        return environment, construction

    def test_ldp_exchange_rejects_an_empty_environment(self, empty):
        environment, construction = empty
        initializer = LDPEmbeddingInitializer(epsilon=2.0, rng=np.random.default_rng(1))
        with pytest.raises(ValueError, match="environment has no devices"):
            initializer.run(environment, construction.assignment)

    def test_tree_batch_rejects_an_empty_environment(self, empty, prepared):
        environment, construction = empty
        with pytest.raises(ValueError, match="environment has no devices"):
            TreeBatch.build(environment, construction, prepared[3], 4)

    def test_trainer_rejects_an_empty_environment(self, empty, prepared):
        environment, construction = empty
        with pytest.raises(ValueError, match="environment has no devices"):
            TreeBasedGNNTrainer(environment, construction, prepared[3], TrainerConfig())
