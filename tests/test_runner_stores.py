"""The evaluation entry points are independent of the store they run on.

Every ``repro.eval.runner.run_*`` experiment entry point takes
``store: Optional[ArtifactStore] = None``; without one, a call creates one
store that all its arms share.  The store is a cache keyed by content, so
where a run's stages come from must never show in what it returns: the
call's own store, a given fresh ``ArtifactStore()``, a second call on the
same store (every stage a hit) and a :class:`~repro.engine.DiskSpillStore`
reloaded from disk all return the same metrics, ledger transcripts,
accountant totals and RNG end states, bit for bit.  Sweep points and arms share the stages whose keys they have
in common, and only those.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core import LumosSystem, default_config_for
from repro.engine import ArtifactStore, DiskSpillStore
from repro.eval import runner
from repro.eval.runner import (
    LUMOS_TASKS,
    ExperimentScale,
    run_ablation,
    run_epsilon_sweep,
    run_robustness_sweep,
)
from repro.faults import FaultScenarioConfig
from repro.graph import load_dataset

from helpers.arms import run_lumos_arm

SCALE = ExperimentScale(num_nodes=40, epochs=3, mcmc_iterations=10, seed=0)
GRAPH = load_dataset("facebook", seed=0, num_nodes=40)
EPSILONS = [0.5, 2.0]
PIPELINE_STAGES = ("partition", "construction", "ldp_draws", "ldp_init", "tree_batch")
DROPOUT = FaultScenarioConfig(dropout_rate=0.3, fault_seed=11)

#: Every ``repro.eval.runner.run_*`` entry point that takes a store, with
#: the arguments that keep it at smoke cost.  ``run_churn_maintenance`` keeps
#: its own journal and snapshot store and takes no ``store``.
ENTRY_POINTS = [
    ("run_supervised_comparison", {}),
    ("run_unsupervised_comparison", {}),
    ("run_epsilon_sweep", {"epsilons": EPSILONS}),
    ("run_ablation", {"task": "unsupervised"}),
    ("run_robustness_sweep", {"scenarios": {"dropout": DROPOUT}}),
    ("run_workload_analysis", {}),
    ("run_system_cost", {}),
    ("run_headline_summary", {}),
]
ENTRY_POINT_IDS = [name for name, _ in ENTRY_POINTS]


def _assert_equal_in_order(left, right):
    """Equal dict-for-dict (same key order), arrays by ``np.array_equal``."""
    if isinstance(left, dict):
        assert isinstance(right, dict) and list(left) == list(right)
        for key in left:
            _assert_equal_in_order(left[key], right[key])
    elif isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray) and np.array_equal(left, right)
    else:
        assert left == right


def _config(epsilon=2.0):
    return (
        default_config_for("facebook")
        .with_mcmc_iterations(SCALE.mcmc_iterations)
        .with_epochs(SCALE.epochs)
        .with_epsilon(epsilon)
        .with_seed(SCALE.seed)
    )


def _arm(task, store, epsilon=2.0):
    config = _config(epsilon)
    if task == "robustness":
        config = config.with_faults(DROPOUT)
    return run_lumos_arm(GRAPH, config, store, task=task, split_seed=SCALE.seed)


def _assert_payloads_equal(left, right):
    assert list(left) == list(right)
    _assert_equal_in_order(left["value"], right["value"])
    for field in ("ledger_summary", "ledger_records", "accountant", "rng_state"):
        assert left[field] == right[field], field
    assert left["ledger_records"]  # the transcript really was compared


class TestEntryPointStores:
    @pytest.mark.parametrize("name, kwargs", ENTRY_POINTS, ids=ENTRY_POINT_IDS)
    def test_a_storeless_call_runs_its_arms_on_one_store_of_its_own(
        self, name, kwargs, monkeypatch
    ):
        entry_point = getattr(runner, name)
        assert inspect.signature(entry_point).parameters["store"].default is None
        created = []
        build = ArtifactStore.__init__

        def spy(store, *args, **kw):
            created.append(store)
            build(store, *args, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(ArtifactStore, "__init__", spy)
            storeless = entry_point("facebook", scale=SCALE, **kwargs)
        # Without ``store=`` the call creates one store for all its arms.
        assert len(created) == 1
        store = ArtifactStore()
        given = entry_point("facebook", scale=SCALE, store=store, **kwargs)
        _assert_equal_in_order(storeless, given)
        assert store.stats()["misses"] > 0  # the given store computed for real
        assert created[0].stats() == store.stats()

    @pytest.mark.parametrize("name, kwargs", ENTRY_POINTS, ids=ENTRY_POINT_IDS)
    def test_second_call_on_one_store_replays_every_stage(self, name, kwargs):
        entry_point = getattr(runner, name)
        store = ArtifactStore()
        cold = entry_point("facebook", scale=SCALE, store=store, **kwargs)
        before = store.stats()
        warm = entry_point("facebook", scale=SCALE, store=store, **kwargs)
        after = store.stats()
        _assert_equal_in_order(cold, warm)
        assert after["misses"] == before["misses"]
        assert after["hits"] > before["hits"]


class TestStageSharing:
    def test_epsilon_sweep_shares_prefix_through_tree_batch(self):
        store = ArtifactStore()
        run_epsilon_sweep("facebook", epsilons=[0.5, 1.0, 2.0], scale=SCALE, store=store)
        # Everything up to the tree batch is keyed on the construction, not on
        # epsilon; only the LDP initialisation is drawn per point.
        for stage in ("partition", "construction", "ldp_draws", "tree_batch"):
            assert store.summary()[stage] == {"hits": 2, "misses": 1}, stage
        assert store.summary()["ldp_init"] == {"hits": 0, "misses": 3}

    def test_ablation_arms_share_only_the_partition(self):
        store = ArtifactStore()
        run_ablation("facebook", scale=SCALE, store=store)
        summary = store.summary()
        assert summary["partition"] == {"hits": 2, "misses": 1}
        for stage in ("construction", "ldp_draws", "ldp_init", "tree_batch"):
            assert summary[stage] == {"hits": 0, "misses": 3}, stage

    def test_robustness_scenarios_share_the_whole_prefix(self):
        store = ArtifactStore()
        results = run_robustness_sweep(
            "facebook", scenarios={"dropout": DROPOUT}, scale=SCALE, store=store
        )
        assert list(results) == ["baseline", "dropout"]
        # Faults engage only at training time: the second arm hits every stage.
        for stage in PIPELINE_STAGES:
            assert store.summary()[stage] == {"hits": 1, "misses": 1}, stage


class TestRecordEquivalence:
    @pytest.mark.parametrize("task", LUMOS_TASKS)
    def test_warm_store_payload_equals_cold_payload(self, task):
        cold = _arm(task, ArtifactStore())
        store = ArtifactStore()
        _arm(task, store, epsilon=0.5)  # warms the shared prefix
        warm = _arm(task, store)
        assert store.summary()["construction"]["hits"] == 1
        _assert_payloads_equal(cold, warm)

    @pytest.mark.parametrize("task", LUMOS_TASKS)
    def test_reloaded_spill_payload_equals_cold_payload(self, task, tmp_path):
        cold = _arm(task, ArtifactStore())
        writer = DiskSpillStore(tmp_path, max_bytes=1)  # spill every stage
        _arm(task, writer)
        assert writer.spill_writes > 0
        # A new store on the same directory (a recovering process) loads
        # every stage from disk and computes none.
        reader = DiskSpillStore(tmp_path, max_bytes=1)
        reloaded = _arm(task, reader)
        assert reader.stats()["misses"] == 0 and reader.spill_loads > 0
        _assert_payloads_equal(cold, reloaded)


class TestArms:
    @pytest.mark.parametrize(
        "name", ["run_supervised_comparison", "run_unsupervised_comparison"]
    )
    def test_baselines_neither_read_nor_fill_the_store(self, name):
        stores = [ArtifactStore(), ArtifactStore()]
        results = [
            getattr(runner, name)(
                "facebook", scale=SCALE, methods=["naive_fedgnn"], store=store
            )
            for store in stores
        ]
        assert results[0] == results[1]
        for store in stores:
            assert len(store) == 0 and store.stats()["misses"] == 0

    def test_an_unknown_task_or_method_is_rejected(self):
        system = LumosSystem(GRAPH, _config(), store=ArtifactStore())
        with pytest.raises(ValueError, match="task must be one of"):
            runner._lumos_value(system, "workloads", SCALE.seed)
        with pytest.raises(ValueError, match="method must be one of"):
            runner._baseline_value(GRAPH, "lpgnn", "unsupervised", "gcn", SCALE)
        with pytest.raises(ValueError, match="task must be one of"):
            runner._baseline_value(GRAPH, "centralized", "workload", "gcn", SCALE)
