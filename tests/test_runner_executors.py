"""Seeded serial-vs-process equivalence of the evaluation entry points.

The runtime's determinism contract, exercised end to end at smoke scale: a
``ProcessExecutor`` must produce **bit-for-bit** the same results as the
default ``SerialExecutor`` — the metrics the entry points return, and (via
the work-item records) the canonical communication-ledger transcripts, the
secure-comparison accountant totals and the final RNG state of every arm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import default_config_for
from repro.engine import ArtifactStore
from repro.eval import runner
from repro.eval.runner import (
    ExperimentScale,
    run_ablation,
    run_epsilon_sweep,
)
from repro.faults import FaultScenarioConfig
from repro.runtime import (
    BaselineItem,
    GraphSpec,
    LumosItem,
    ProcessExecutor,
    SerialExecutor,
    WorkPlan,
)

SCALE = ExperimentScale(num_nodes=40, epochs=3, mcmc_iterations=10, seed=0)
EPSILONS = [0.5, 2.0]


#: Every ``repro.eval.runner.run_*`` entry point, with the arguments that keep
#: it at smoke cost.
ENTRY_POINTS = [
    ("run_supervised_comparison", {}),
    ("run_unsupervised_comparison", {}),
    ("run_epsilon_sweep", {"epsilons": EPSILONS}),
    ("run_ablation", {"task": "unsupervised"}),
    ("run_robustness_sweep", {
        "scenarios": {"dropout": FaultScenarioConfig(dropout_rate=0.3, fault_seed=11)},
    }),
    ("run_churn_maintenance", {"rounds": 6, "check_every": 3}),
    ("run_workload_analysis", {}),
    ("run_system_cost", {}),
    ("run_headline_summary", {}),
]


def _assert_equal_in_order(left, right):
    """Equal dict-for-dict (same key order), arrays by ``np.array_equal``."""
    if isinstance(left, dict):
        assert isinstance(right, dict) and list(left) == list(right)
        for key in left:
            _assert_equal_in_order(left[key], right[key])
    elif isinstance(left, np.ndarray):
        assert np.array_equal(left, right)
    else:
        assert left == right


def _config(epsilon):
    return (
        default_config_for("facebook")
        .with_mcmc_iterations(SCALE.mcmc_iterations)
        .with_epochs(SCALE.epochs)
        .with_epsilon(epsilon)
        .with_seed(SCALE.seed)
    )


class TestRunnerEquivalence:
    def test_epsilon_sweep_supervised(self):
        serial = run_epsilon_sweep(
            "facebook", epsilons=EPSILONS, scale=SCALE,
            executor=SerialExecutor(store=ArtifactStore()),
        )
        process = run_epsilon_sweep(
            "facebook", epsilons=EPSILONS, scale=SCALE,
            executor=ProcessExecutor(max_workers=2),
        )
        assert serial == process
        assert list(process) == EPSILONS  # merge preserves request order

    def test_epsilon_sweep_unsupervised(self):
        serial = run_epsilon_sweep(
            "facebook", task="unsupervised", epsilons=EPSILONS, scale=SCALE,
            executor=SerialExecutor(store=ArtifactStore()),
        )
        process = run_epsilon_sweep(
            "facebook", task="unsupervised", epsilons=EPSILONS, scale=SCALE,
            executor=ProcessExecutor(max_workers=2),
        )
        assert serial == process

    def test_ablation(self):
        serial = run_ablation(
            "facebook", scale=SCALE, executor=SerialExecutor(store=ArtifactStore())
        )
        process = run_ablation(
            "facebook", scale=SCALE, executor=ProcessExecutor(max_workers=2)
        )
        assert serial == process
        assert list(process) == ["lumos", "lumos_wo_vn", "lumos_wo_tt"]

    def test_executor_instance_is_honoured_and_reusable(self, tmp_path):
        executor = ProcessExecutor(max_workers=2, spill_dir=str(tmp_path))
        first = run_epsilon_sweep(
            "facebook", epsilons=EPSILONS, scale=SCALE, executor=executor
        )
        # The pinned spill directory now holds the shared prefix + results;
        # a second call reuses the same executor (and warm artifacts).
        assert any(tmp_path.glob("*.npz"))
        second = run_epsilon_sweep(
            "facebook", epsilons=EPSILONS, scale=SCALE, executor=executor
        )
        assert first == second

    @pytest.mark.parametrize("name, kwargs", ENTRY_POINTS, ids=[n for n, _ in ENTRY_POINTS])
    def test_every_entry_point_default_executor_equals_process_pool(self, name, kwargs):
        entry_point = getattr(runner, name)
        default = entry_point("facebook", scale=SCALE, **kwargs)
        process = entry_point(
            "facebook", scale=SCALE, executor=ProcessExecutor(max_workers=2), **kwargs
        )
        _assert_equal_in_order(default, process)


class TestRecordEquivalence:
    def test_transcripts_accountant_and_rng_state_match_bit_for_bit(self):
        spec = GraphSpec(dataset="facebook", seed=0, num_nodes=40)
        plan = WorkPlan()
        for epsilon in EPSILONS:
            plan.add(
                LumosItem(
                    graph_spec=spec, config=_config(epsilon), task="supervised",
                    split_seed=SCALE.seed, keep_transcript=True,
                    label=f"eps={epsilon}",
                )
            )
        serial = SerialExecutor().execute(plan)
        process = ProcessExecutor(max_workers=2).execute(plan)
        assert set(serial.records) == set(process.records)
        for key in plan.requests:
            a, b = serial.records[key], process.records[key]
            assert a.value == b.value
            assert a.ledger_summary == b.ledger_summary
            assert a.ledger_records == b.ledger_records
            assert a.ledger_records is not None and len(a.ledger_records) > 0
            assert a.accountant == b.accountant
            assert a.rng_state == b.rng_state

    def test_workload_arrays_match(self):
        spec = GraphSpec(dataset="facebook", seed=0, num_nodes=40)
        item = LumosItem(
            graph_spec=spec, config=_config(2.0), task="workload", split_seed=0
        )
        plan = WorkPlan([item])
        serial = SerialExecutor().execute(plan)
        process = ProcessExecutor(max_workers=1).execute(plan)
        assert np.array_equal(
            serial.records[item.key()].value, process.records[item.key()].value
        )

    def test_process_pool_reports_warmup_and_store_stats(self):
        spec = GraphSpec(dataset="facebook", seed=0, num_nodes=40)
        plan = WorkPlan(
            [
                LumosItem(
                    graph_spec=spec, config=_config(epsilon), task="supervised",
                    split_seed=0, label=f"eps={epsilon}",
                )
                for epsilon in (0.5, 1.0, 2.0)
            ]
        )
        report = ProcessExecutor(max_workers=2).execute(plan)
        assert report.stats["warmup_runs"] == 1  # shared prefix computed once
        store = report.stats["store"]
        assert store["spill_writes"] > 0  # prefix + results published on disk
        assert store["misses"] > 0


class TestBaselineItem:
    SPEC = GraphSpec(dataset="facebook", seed=0, num_nodes=40)

    def _item(self, **overrides):
        fields = dict(
            method="centralized", task="supervised", graph_spec=self.SPEC,
            backbone="gcn", epochs=3, seed=0, split_seed=0,
        )
        fields.update(overrides)
        return BaselineItem(**fields)

    @pytest.mark.parametrize(
        "override",
        [
            {"method": "lpgnn"},
            {"task": "unsupervised"},
            {"backbone": "gat"},
            {"epochs": 4},
            {"seed": 1},
            {"split_seed": 1},
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_key_changes_with_every_field(self, override):
        assert self._item(**override).key() != self._item().key()
        assert self._item(**override).key() == self._item(**override).key()

    def test_label_and_timeout_do_not_enter_the_key(self):
        assert self._item().key() == self._item(label="x", timeout=5.0).key()

    def test_invalid_method_for_task_raises(self):
        with pytest.raises(ValueError, match="method must be one of"):
            self._item(method="lpgnn", task="unsupervised")
        with pytest.raises(ValueError, match="method must be one of"):
            self._item(method="lumos")
        with pytest.raises(ValueError, match="task must be one of"):
            self._item(task="workload")

    def test_serial_value_equals_process_value(self):
        plan = WorkPlan(
            [
                self._item(method="naive_fedgnn"),
                self._item(method="naive_fedgnn", task="unsupervised"),
            ]
        )
        serial = SerialExecutor().execute(plan)
        process = ProcessExecutor(max_workers=2).execute(plan)
        assert plan.values(serial.records) == plan.values(process.records)
        for key in plan.requests:
            # Baselines touch no ledger, accountant or system RNG.
            assert serial.records[key].ledger_summary is None
            assert serial.records[key].rng_state is None
