"""The churn-maintenance entry point.

``run_churn_maintenance`` returns only deterministic values (counters,
objectives, digest checks — no wall clock), so two runs of one
configuration produce bit-for-bit identical dictionaries.  The payload also
carries the inline replay assertion (``replay_matches_live``), which makes
every run a crash-consistency check of its own journal.
"""

from __future__ import annotations

import pytest

from repro.eval.runner import ExperimentScale, run_churn_maintenance
from repro.faults.config import FaultScenarioConfig

SCALE = ExperimentScale(num_nodes=40, epochs=3, mcmc_iterations=10, seed=0)


class TestChurnMaintenanceRunner:
    def test_two_runs_return_identical_payloads(self):
        kwargs = dict(
            scenario=FaultScenarioConfig(
                join_rate=0.30, leave_rate=0.10, fault_seed=13
            ),
            rounds=8,
            scale=SCALE,
            check_every=4,
        )
        assert run_churn_maintenance("facebook", **kwargs) == run_churn_maintenance(
            "facebook", **kwargs
        )

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

    @pytest.mark.parametrize("check_every", [-3, 2.5, True])
    def test_check_every_must_be_a_non_negative_integer(self, check_every):
        # -3 once behaved exactly like 3: (r + 1) % -3 == 0 whenever 3 | r + 1.
        with pytest.raises(ValueError, match="check_every"):
            run_churn_maintenance("facebook", rounds=6, scale=SCALE, check_every=check_every)

    def test_check_every_zero_runs_no_staleness_checks(self):
        kwargs = dict(
            scenario=FaultScenarioConfig(join_rate=0.40, leave_rate=0.15, fault_seed=5),
            rounds=6,
            scale=SCALE,
        )
        unchecked = run_churn_maintenance("facebook", check_every=0, **kwargs)
        assert unchecked["staleness_checks"] == 0.0
        # Without checks the monitor triggers no repairs: churn is all there is.
        assert unchecked["rebalances"] == unchecked["rebuilds"] == 0.0
        assert unchecked["mutations"] == unchecked["joins"] + unchecked["leaves"] > 0
        assert unchecked["replay_matches_live"] == 1.0
        checked = run_churn_maintenance("facebook", check_every=3, **kwargs)
        assert checked["staleness_checks"] == 2.0
