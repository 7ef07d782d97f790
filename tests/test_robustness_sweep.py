"""Serial-vs-process equivalence and semantics of the robustness sweep.

``run_robustness_sweep`` fans fault scenarios through the same work-plan
machinery as the epsilon sweep, so it inherits the runtime's determinism
contract: the process executor must reproduce the serial loop bit-for-bit.
The sweep always carries an empty baseline arm so every scenario reports an
``accuracy_vs_baseline_percent`` delta.
"""

from __future__ import annotations

import pytest

from repro.engine import ArtifactStore
from repro.eval.runner import ExperimentScale, run_robustness_sweep
from repro.faults import FaultScenarioConfig
from repro.runtime import ProcessExecutor, SerialExecutor

SCALE = ExperimentScale(num_nodes=40, epochs=3, mcmc_iterations=10, seed=0)

SCENARIOS = {
    "baseline": FaultScenarioConfig(),
    "dropout": FaultScenarioConfig(dropout_rate=0.3, fault_seed=11),
    "stragglers": FaultScenarioConfig(
        straggler_rate=0.3, straggler_multiplier=4.0, round_deadline=2.0,
        fault_seed=14,
    ),
}


@pytest.fixture(scope="module")
def serial_results():
    return run_robustness_sweep(
        "facebook", scenarios=SCENARIOS, scale=SCALE,
        executor=SerialExecutor(store=ArtifactStore()),
    )


class TestRobustnessSweep:
    def test_process_executor_matches_serial_bit_for_bit(self, serial_results):
        process = run_robustness_sweep(
            "facebook",
            scenarios=SCENARIOS,
            scale=SCALE,
            executor=ProcessExecutor(max_workers=2),
        )
        assert process == serial_results

    def test_every_scenario_is_reported(self, serial_results):
        assert set(serial_results) == set(SCENARIOS)

    def test_baseline_arm_has_full_participation_and_zero_delta(
        self, serial_results
    ):
        baseline = serial_results["baseline"]
        assert baseline["mean_participation"] == 1.0
        assert baseline["offline_device_rounds"] == 0.0
        assert baseline["dropped_messages"] == 0.0
        assert baseline["accuracy_vs_baseline_percent"] == 0.0

    def test_dropout_reduces_participation(self, serial_results):
        dropout = serial_results["dropout"]
        assert dropout["mean_participation"] < 1.0
        assert dropout["offline_device_rounds"] > 0
        assert "accuracy_vs_baseline_percent" in dropout

    def test_stragglers_evict_and_slow_rounds(self, serial_results):
        stragglers = serial_results["stragglers"]
        baseline = serial_results["baseline"]
        assert stragglers["evicted_device_rounds"] > 0
        assert stragglers["mean_epoch_time"] > baseline["mean_epoch_time"]
        # evicted updates were transmitted but never delivered.
        assert stragglers["dropped_messages"] > 0

    def test_missing_baseline_arm_is_added_automatically(self):
        results = run_robustness_sweep(
            "facebook",
            scenarios={
                "dropout": FaultScenarioConfig(dropout_rate=0.3, fault_seed=11)
            },
            scale=SCALE,
            executor=SerialExecutor(store=ArtifactStore()),
        )
        assert "baseline" in results
        assert results["baseline"]["accuracy_vs_baseline_percent"] == 0.0
