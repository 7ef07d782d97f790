"""Chaos-hardening of the parallel runtime: seeded kills, stalls, backoff.

The scheduler's promise under injected worker faults: every item still
completes (retries converge because injection applies only to attempts
``<= max_attempt``), the merged report is **bit-identical** to a fault-free
serial run, and the failure provenance — which attempt died, on which
worker, crash vs timeout — is recorded per item.
"""

from __future__ import annotations

import pytest

from repro.core import default_config_for
from repro.runtime import (
    ChaosConfig,
    FailedAttempt,
    GraphSpec,
    LumosItem,
    ProcessExecutor,
    SerialExecutor,
    WorkPlan,
    backoff_delay,
    chaos_action,
)

SPEC = GraphSpec(dataset="facebook", seed=0, num_nodes=40)


def _config(epsilon: float):
    return (
        default_config_for("facebook")
        .with_mcmc_iterations(10)
        .with_epochs(3)
        .with_epsilon(epsilon)
        .with_seed(0)
    )


def _plan(epsilons=(0.5, 2.0), **item_kwargs):
    plan = WorkPlan()
    for epsilon in epsilons:
        plan.add(
            LumosItem(
                graph_spec=SPEC, config=_config(epsilon), task="supervised",
                split_seed=0, keep_transcript=True, label=f"eps={epsilon}",
                **item_kwargs,
            )
        )
    return plan


def _assert_records_match(fault_free, chaotic, plan):
    assert set(fault_free.records) == set(chaotic.records)
    for key in plan.requests:
        a, b = fault_free.records[key], chaotic.records[key]
        assert a.value == b.value
        assert a.ledger_summary == b.ledger_summary
        assert a.ledger_records == b.ledger_records
        assert a.ledger_records is not None and len(a.ledger_records) > 0
        assert a.accountant == b.accountant
        assert a.rng_state == b.rng_state


# --------------------------------------------------------------------------- #
# Unit: the deterministic injection & backoff primitives
# --------------------------------------------------------------------------- #
class TestChaosAction:
    def test_pure_function_of_seed_key_attempt(self):
        chaos = ChaosConfig(seed=3, crash_rate=0.5, stall_rate=0.5)
        actions = {chaos_action(chaos, f"item-{i}", 1) for i in range(50)}
        assert actions <= {"crash", "stall"}
        assert len(actions) == 2  # both outcomes occur across keys
        for i in range(50):
            assert chaos_action(chaos, f"item-{i}", 1) == chaos_action(
                chaos, f"item-{i}", 1
            )

    def test_injection_stops_after_max_attempt(self):
        chaos = ChaosConfig(seed=0, crash_rate=1.0, max_attempt=2)
        assert chaos_action(chaos, "item", 1) == "crash"
        assert chaos_action(chaos, "item", 2) == "crash"
        assert chaos_action(chaos, "item", 3) is None

    def test_none_config_injects_nothing(self):
        assert chaos_action(None, "item", 1) is None

    def test_rates_partition_the_unit_interval(self):
        assert chaos_action(ChaosConfig(crash_rate=1.0), "item", 1) == "crash"
        assert chaos_action(ChaosConfig(stall_rate=1.0), "item", 1) == "stall"
        assert chaos_action(ChaosConfig(), "item", 1) is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": 1.5},
            {"stall_rate": -0.1},
            {"crash_rate": 0.6, "stall_rate": 0.6},
            {"stall_seconds": -1.0},
            {"max_attempt": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)


class TestBackoffDelay:
    def test_zero_base_disables_backoff(self):
        assert backoff_delay(0, "item", 3, 0.0) == 0.0

    def test_deterministic_and_jittered(self):
        first = backoff_delay(7, "item", 1, 0.1)
        assert first == backoff_delay(7, "item", 1, 0.1)
        assert 0.05 <= first < 0.15  # base * jitter in [0.5, 1.5)
        assert first != backoff_delay(8, "item", 1, 0.1)

    def test_exponential_growth(self):
        base = 0.1
        for attempt in (1, 2, 3):
            delay = backoff_delay(0, "item", attempt, base)
            scale = base * 2 ** (attempt - 1)
            assert 0.5 * scale <= delay < 1.5 * scale

    def test_attempt_zero_is_non_negative_and_base_scaled(self):
        # The exponent clamps at zero: attempt 0 and attempt 1 both wait one
        # jittered base interval, never a negative-exponent fraction.
        delay = backoff_delay(3, "item", 0, 0.2)
        assert 0.1 <= delay < 0.3
        assert delay == backoff_delay(3, "item", 0, 0.2)

    def test_huge_attempt_counts_never_overflow_and_hit_the_cap(self):
        from repro.runtime.executor import BACKOFF_CAP_SECONDS

        for attempt in (64, 1025, 10**9):
            assert backoff_delay(0, "item", attempt, 1.0) == BACKOFF_CAP_SECONDS
        # Even a base large enough to push the float product to infinity
        # stays total and capped rather than raising OverflowError.
        assert backoff_delay(0, "item", 2000, 1e300) == BACKOFF_CAP_SECONDS

    def test_moderate_exponents_are_capped_too(self):
        from repro.runtime.executor import BACKOFF_CAP_SECONDS

        assert backoff_delay(5, "key", 30, 1.0) == BACKOFF_CAP_SECONDS

    def test_negative_base_disables_backoff(self):
        assert backoff_delay(0, "item", 5, -1.0) == 0.0


# --------------------------------------------------------------------------- #
# Integration: chaotic pools still satisfy the determinism contract
# --------------------------------------------------------------------------- #
class TestChaoticPool:
    def test_crashed_workers_retry_and_match_fault_free_serial(self):
        plan = _plan()
        fault_free = SerialExecutor().execute(plan)
        chaos = ChaosConfig(seed=5, crash_rate=1.0, max_attempt=1)
        chaotic = ProcessExecutor(
            max_workers=2, retries=2, chaos=chaos,
            backoff_base=0.01, backoff_seed=5,
        ).execute(plan)

        _assert_records_match(fault_free, chaotic, plan)
        assert chaotic.stats["crashes"] >= len(plan)
        assert chaotic.stats["retries_used"] >= len(plan)
        assert chaotic.stats["backoff_seconds"] > 0.0

        for key in plan.requests:
            record = chaotic.records[key]
            assert record.attempts == 2
            attempts = chaotic.failure_attempts[key]
            assert len(attempts) == 1
            failed = attempts[0]
            assert isinstance(failed, FailedAttempt)
            assert failed.kind == "crash"
            assert failed.attempt == 1
            assert failed.worker is not None

    def test_stalled_workers_hit_the_deadline_and_recover(self):
        plan = _plan(epsilons=(2.0,), timeout=2.0)
        fault_free = SerialExecutor().execute(plan)
        chaos = ChaosConfig(
            seed=1, stall_rate=1.0, stall_seconds=30.0, max_attempt=1
        )
        chaotic = ProcessExecutor(
            max_workers=1, retries=1, chaos=chaos,
            backoff_base=0.01, backoff_seed=1,
        ).execute(plan)

        _assert_records_match(fault_free, chaotic, plan)
        assert chaotic.stats["timeouts"] >= 1
        [key] = plan.requests
        assert chaotic.records[key].attempts == 2
        [failed] = chaotic.failure_attempts[key]
        assert failed.kind == "timeout"
        assert failed.attempt == 1

    def test_chaos_runs_are_reproducible(self):
        plan = _plan(epsilons=(0.5,))
        chaos = ChaosConfig(seed=9, crash_rate=1.0, max_attempt=1)

        def run():
            return ProcessExecutor(
                max_workers=1, retries=1, chaos=chaos,
                backoff_base=0.0,
            ).execute(plan)

        first, second = run(), run()
        [key] = plan.requests
        assert first.records[key].value == second.records[key].value
        assert [f.kind for f in first.failure_attempts[key]] == [
            f.kind for f in second.failure_attempts[key]
        ]

    def test_exhausted_chaos_budget_reports_every_attempt(self):
        # max_attempt above the retry budget: the item can never finish and
        # the failure must carry one provenance entry per attempt.
        from repro.runtime import WorkItemFailure

        plan = _plan(epsilons=(0.5,))
        chaos = ChaosConfig(seed=2, crash_rate=1.0, max_attempt=10)
        executor = ProcessExecutor(
            max_workers=1, retries=1, chaos=chaos, backoff_base=0.0
        )
        with pytest.raises(WorkItemFailure) as excinfo:
            executor.execute(plan)
        [key] = plan.requests
        attempts = excinfo.value.failure_attempts[key]
        assert [f.attempt for f in attempts] == [1, 2]
        assert all(f.kind == "crash" for f in attempts)
        assert "crash" in str(excinfo.value)
