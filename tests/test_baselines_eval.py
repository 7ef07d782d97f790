"""Tests for the baselines, the metrics and the evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    LPGNNConfig,
    NaiveFedGNNConfig,
    perturb_graph,
    train_centralized_supervised,
    train_centralized_unsupervised,
    train_lpgnn_supervised,
    train_naive_fedgnn_supervised,
    train_naive_fedgnn_unsupervised,
)
from repro.eval.metrics import accuracy, relative_change, roc_auc_score
from repro.eval.reporting import (
    cdf_series,
    format_table,
    relative_savings_percent,
    summarize_comparison,
)
from repro.graph import generate_facebook_like, split_edges, split_nodes


@pytest.fixture(scope="module")
def bench_graph():
    return generate_facebook_like(seed=11, num_nodes=150)


@pytest.fixture(scope="module")
def bench_split(bench_graph):
    return split_nodes(bench_graph, seed=0)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)
        assert accuracy(np.array([1, 0]), np.array([1, 1]), mask=np.array([True, False])) == 1.0
        assert accuracy(np.array([]), np.array([])) == 0.0
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_roc_auc_perfect_and_random(self):
        targets = np.array([1, 1, 0, 0])
        assert roc_auc_score(targets, np.array([0.9, 0.8, 0.2, 0.1])) == 1.0
        assert roc_auc_score(targets, np.array([0.1, 0.2, 0.8, 0.9])) == 0.0
        assert roc_auc_score(targets, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)

    def test_roc_auc_handles_ties_and_degenerate_inputs(self):
        targets = np.array([1, 0, 1, 0])
        scores = np.array([0.7, 0.7, 0.3, 0.3])
        assert roc_auc_score(targets, scores) == pytest.approx(0.5)
        assert roc_auc_score(np.ones(3), np.random.default_rng(0).random(3)) == 0.5
        with pytest.raises(ValueError):
            roc_auc_score(np.array([1, 0]), np.array([0.5]))

    def test_roc_auc_matches_probability_interpretation(self):
        rng = np.random.default_rng(0)
        positives = rng.normal(1.0, 1.0, 300)
        negatives = rng.normal(0.0, 1.0, 300)
        scores = np.concatenate([positives, negatives])
        targets = np.concatenate([np.ones(300), np.zeros(300)])
        empirical = np.mean(positives[:, None] > negatives[None, :])
        assert roc_auc_score(targets, scores) == pytest.approx(empirical, abs=1e-6)

    def test_relative_change(self):
        assert relative_change(0.5, 0.75) == pytest.approx(50.0)
        assert relative_change(0.0, 1.0) == 0.0


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["lumos", 0.75], ["baseline", 0.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "lumos" in lines[2] and "0.7500" in lines[2]

    def test_relative_helpers(self):
        assert relative_savings_percent(100.0, 65.0) == pytest.approx(35.0)
        assert relative_savings_percent(0.0, 1.0) == 0.0

    def test_cdf_series(self):
        series = cdf_series(np.array([1.0, 2.0, 3.0, 4.0]), points=[2.0, 4.0])
        assert series[2.0] == pytest.approx(0.5)
        assert series[4.0] == pytest.approx(1.0)
        assert cdf_series(np.array([])) == {}

    def test_summarize_comparison(self):
        text = summarize_comparison({"lumos": 0.8, "naive": 0.5}, reference_key="naive")
        assert "reference" in text and "+60.0%" in text


class TestCentralizedBaseline:
    def test_supervised_learns_homophilous_graph(self, bench_graph, bench_split):
        result = train_centralized_supervised(bench_graph, bench_split, epochs=40, seed=0)
        assert result.test_accuracy > 0.6
        assert result.losses[-1] < result.losses[0]

    def test_unsupervised_beats_chance(self, bench_graph):
        edge_split = split_edges(bench_graph, seed=0)
        result = train_centralized_unsupervised(bench_graph, edge_split, epochs=30, seed=0)
        assert result.test_auc > 0.55

    def test_requires_labels(self, bench_graph, bench_split):
        from repro.graph import Graph

        unlabeled = Graph(num_nodes=bench_graph.num_nodes, edges=bench_graph.edges,
                          features=bench_graph.features)
        with pytest.raises(ValueError):
            train_centralized_supervised(unlabeled, bench_split, epochs=1)


class TestNaiveFedGNN:
    def test_perturb_graph_changes_everything(self, bench_graph):
        rng = np.random.default_rng(0)
        noisy_graph, noisy_labels = perturb_graph(bench_graph, NaiveFedGNNConfig(), rng)
        assert noisy_graph.num_nodes == bench_graph.num_nodes
        assert not np.allclose(noisy_graph.features, bench_graph.normalized_features().features)
        assert noisy_graph.edge_set() != bench_graph.edge_set()
        assert np.any(noisy_labels != bench_graph.labels)

    def test_perturbation_strength_scales_with_epsilon(self, bench_graph):
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        strong, _ = perturb_graph(bench_graph, NaiveFedGNNConfig(edge_epsilon=0.1), rng_a)
        weak, _ = perturb_graph(bench_graph, NaiveFedGNNConfig(edge_epsilon=6.0), rng_b)
        true_edges = bench_graph.edge_set()
        strong_kept = len(true_edges & strong.edge_set())
        weak_kept = len(true_edges & weak.edge_set())
        assert weak_kept > strong_kept

    def test_supervised_runs_and_underperforms_centralized(self, bench_graph, bench_split):
        central = train_centralized_supervised(bench_graph, bench_split, epochs=40, seed=0)
        naive = train_naive_fedgnn_supervised(bench_graph, bench_split, epochs=40, seed=0)
        assert 0.0 <= naive.test_accuracy <= 1.0
        assert naive.test_accuracy < central.test_accuracy

    def test_unsupervised_runs(self, bench_graph):
        edge_split = split_edges(bench_graph, seed=0)
        result = train_naive_fedgnn_unsupervised(bench_graph, edge_split, epochs=20, seed=0)
        assert 0.0 <= result.test_auc <= 1.0


class TestLPGNN:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            LPGNNConfig(feature_epsilon=0.0)
        with pytest.raises(ValueError):
            LPGNNConfig(kprop_steps=-1)

    def test_supervised_runs_between_naive_and_centralized(self, bench_graph, bench_split):
        central = train_centralized_supervised(bench_graph, bench_split, epochs=40, seed=0)
        lpgnn = train_lpgnn_supervised(bench_graph, bench_split, epochs=40, seed=0)
        naive = train_naive_fedgnn_supervised(bench_graph, bench_split, epochs=40, seed=0)
        assert naive.test_accuracy <= lpgnn.test_accuracy <= central.test_accuracy + 0.05

    def test_feature_encoding_is_lossy_but_denoised(self, bench_graph):
        from repro.baselines.lpgnn import encode_features_lpgnn

        rng = np.random.default_rng(0)
        encoded = encode_features_lpgnn(bench_graph, LPGNNConfig(), rng)
        normalized = bench_graph.normalized_features().features
        assert encoded.shape == normalized.shape
        assert not np.allclose(encoded, normalized)
        # KProp keeps values within the recovery range (finite, bounded).
        assert np.all(np.isfinite(encoded))


@pytest.fixture
def never_runs(monkeypatch):
    """Fail the test if validation lets an experiment load its graph."""
    from repro.eval import runner

    def load_graph(dataset, scale):
        raise AssertionError("work was started before the arguments were validated")

    monkeypatch.setattr(runner, "_load_graph", load_graph)


class TestExperimentRunner:
    def test_supervised_comparison_orders_methods(self):
        from repro.eval.runner import ExperimentScale, run_supervised_comparison

        scale = ExperimentScale(num_nodes=120, epochs=15, mcmc_iterations=20, seed=0)
        results = run_supervised_comparison("facebook", scale=scale)
        assert set(results) == {"lumos", "centralized", "lpgnn", "naive_fedgnn"}
        assert results["centralized"] >= results["naive_fedgnn"]
        assert results["lumos"] > results["naive_fedgnn"]

    def test_workload_analysis_shows_trimming_effect(self):
        from repro.eval.runner import ExperimentScale, run_workload_analysis

        scale = ExperimentScale(num_nodes=150, epochs=2, mcmc_iterations=40, seed=0)
        analysis = run_workload_analysis("facebook", scale=scale)
        assert analysis["lumos"].max() < analysis["lumos_wo_tt"].max()
        np.testing.assert_array_equal(analysis["lumos_wo_tt"], analysis["degrees"])

    def test_system_cost_shows_savings(self):
        from repro.eval.runner import ExperimentScale, run_system_cost

        scale = ExperimentScale(num_nodes=150, epochs=2, mcmc_iterations=40, seed=0)
        cost = run_system_cost("lastfm", scale=scale)
        assert (
            cost["lumos"]["supervised_rounds_per_device"]
            < cost["lumos_wo_tt"]["supervised_rounds_per_device"]
        )
        assert (
            cost["lumos"]["supervised_epoch_time"]
            < cost["lumos_wo_tt"]["supervised_epoch_time"]
        )

    @pytest.mark.parametrize("entry_point", ["run_epsilon_sweep", "run_ablation"])
    @pytest.mark.parametrize("task", ["supervise", "workload", ""])
    def test_unknown_task_is_rejected_before_any_work(self, entry_point, task, never_runs):
        from repro.eval import runner

        with pytest.raises(ValueError, match=r"\('supervised', 'unsupervised'\)"):
            getattr(runner, entry_point)("facebook", task=task)

    def test_unknown_method_is_rejected_before_any_work(self, never_runs):
        from repro.eval.runner import run_supervised_comparison, run_unsupervised_comparison

        with pytest.raises(ValueError, match="'lumos', 'centralized', 'lpgnn', 'naive_fedgnn'"):
            run_supervised_comparison("facebook", methods=["lumos", "centralised"])
        # lpgnn has no link-prediction arm: valid for Fig. 3, a typo for Fig. 4.
        with pytest.raises(ValueError, match="'lumos', 'centralized', 'naive_fedgnn'"):
            run_unsupervised_comparison("facebook", methods=["lumos", "lpgnn"])

    def test_explicitly_empty_grids_are_rejected_not_defaulted(self, never_runs):
        from repro.eval.runner import (
            run_epsilon_sweep,
            run_supervised_comparison,
            run_unsupervised_comparison,
        )

        with pytest.raises(ValueError, match="epsilons"):
            run_epsilon_sweep("facebook", epsilons=[])
        with pytest.raises(ValueError, match="non-empty"):
            run_supervised_comparison("facebook", methods=[])
        with pytest.raises(ValueError, match="non-empty"):
            run_unsupervised_comparison("facebook", methods=[])

    def test_experiment_scales(self):
        from repro.eval.runner import ExperimentScale

        assert ExperimentScale.small().num_nodes == 300
        assert ExperimentScale.medium().epochs == 150
        assert ExperimentScale.paper().num_nodes is None

    def test_figures_module_jsonable(self):
        from repro.eval.figures import _to_jsonable

        payload = {"a": np.array([1.0, 2.0]), "b": {"c": np.float64(0.5)}, "d": (1, 2)}
        converted = _to_jsonable(payload)
        assert converted == {"a": [1.0, 2.0], "b": {"c": 0.5}, "d": [1, 2]}
