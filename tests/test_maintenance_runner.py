"""Serial-vs-process equivalence of the churn-maintenance entry point.

``run_churn_maintenance`` ships its whole body as a ``CallableItem`` whose
return payload contains only deterministic values (counters, objectives,
digest checks — no wall clock), so the serial executor and the process pool
must produce bit-for-bit identical dictionaries.  The payload also carries
the inline replay assertion (``replay_matches_live``), which makes every
executor run a crash-consistency check of its own journal.
"""

from __future__ import annotations

from repro.eval.runner import ExperimentScale, run_churn_maintenance
from repro.faults.config import FaultScenarioConfig
from repro.runtime import ProcessExecutor

SCALE = ExperimentScale(num_nodes=40, epochs=3, mcmc_iterations=10, seed=0)


class TestChurnMaintenanceRunner:
    def test_serial_and_process_payloads_are_identical(self):
        kwargs = dict(
            scenario=FaultScenarioConfig(
                join_rate=0.30, leave_rate=0.10, fault_seed=13
            ),
            rounds=8,
            scale=SCALE,
            check_every=4,
        )
        serial = run_churn_maintenance("facebook", **kwargs)
        process = run_churn_maintenance(
            "facebook", executor=ProcessExecutor(max_workers=2), **kwargs
        )
        assert serial == process

    def test_payload_shape_and_replay_contract(self):
        payload = run_churn_maintenance(
            "facebook",
            scenario=FaultScenarioConfig(
                join_rate=0.40, leave_rate=0.15, fault_seed=5
            ),
            rounds=6,
            scale=SCALE,
            check_every=3,
        )
        assert payload["replay_matches_live"] == 1.0
        assert payload["devices"] == float(SCALE.num_nodes)
        # Every mutation is a join, a leave, or a monitor-triggered repair.
        assert payload["mutations"] == (
            payload["joins"] + payload["leaves"]
            + payload["rebalances"] + payload["rebuilds"]
        )
        assert payload["staleness_checks"] == 2.0
        assert all(isinstance(value, float) for value in payload.values())

    def test_churn_free_scenario_yields_no_mutations(self):
        payload = run_churn_maintenance(
            "facebook",
            scenario=FaultScenarioConfig(fault_seed=1),  # no churn configured
            rounds=6,
            scale=SCALE,
            check_every=0,  # no staleness checks -> no repair mutations either
        )
        assert payload["mutations"] == 0.0
        assert payload["present_devices"] == payload["devices"]
        assert payload["replay_matches_live"] == 1.0
