"""The parallel runtime under killed and stalled workers, and its backoff.

The scheduler's promise under worker faults: every item still completes
(retries converge because the crash point spends only the first attempts),
the merged report is **bit-identical** to a fault-free serial run, and the
failure provenance — which attempt died, on which worker, crash vs timeout —
is recorded per item.  The faults are real: ``helpers.crash_points`` makes a
worker ``os._exit`` or sleep inside the item's ``execute``.
"""

from __future__ import annotations

import pytest

from helpers.crash_points import item_crash_point

from repro.core import default_config_for
from repro.runtime import (
    FailedAttempt,
    GraphSpec,
    LumosItem,
    ProcessExecutor,
    SerialExecutor,
    WorkPlan,
    backoff_delay,
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
# Unit: the deterministic backoff
# --------------------------------------------------------------------------- #
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
    def test_crashed_workers_retry_and_match_fault_free_serial(self, tmp_path):
        plan = _plan()
        fault_free = SerialExecutor().execute(plan)
        with item_crash_point(LumosItem, tmp_path):
            chaotic = ProcessExecutor(
                max_workers=2, retries=2, backoff_base=0.01, backoff_seed=5,
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
            assert "exit code 86" in failed.reason

    def test_stalled_workers_hit_the_deadline_and_recover(self, tmp_path):
        plan = _plan(epsilons=(2.0,), timeout=2.0)
        fault_free = SerialExecutor().execute(plan)
        with item_crash_point(LumosItem, tmp_path, stall_seconds=30.0):
            chaotic = ProcessExecutor(
                max_workers=1, retries=1, backoff_base=0.01, backoff_seed=1,
            ).execute(plan)

        _assert_records_match(fault_free, chaotic, plan)
        assert chaotic.stats["timeouts"] >= 1
        [key] = plan.requests
        assert chaotic.records[key].attempts == 2
        [failed] = chaotic.failure_attempts[key]
        assert failed.kind == "timeout"
        assert failed.attempt == 1

    def test_chaos_runs_are_reproducible(self, tmp_path):
        plan = _plan(epsilons=(0.5,))

        def run(markers):
            markers.mkdir()
            with item_crash_point(LumosItem, markers):
                return ProcessExecutor(
                    max_workers=1, retries=1, backoff_base=0.0,
                ).execute(plan)

        first, second = run(tmp_path / "first"), run(tmp_path / "second")
        [key] = plan.requests
        assert first.records[key].value == second.records[key].value
        assert [f.kind for f in first.failure_attempts[key]] == [
            f.kind for f in second.failure_attempts[key]
        ]

    def test_exhausted_chaos_budget_reports_every_attempt(self, tmp_path):
        # More attempts die than the retry budget covers: the item can never
        # finish and the failure must carry one provenance entry per attempt.
        from repro.runtime import WorkItemFailure

        plan = _plan(epsilons=(0.5,))
        executor = ProcessExecutor(max_workers=1, retries=1, backoff_base=0.0)
        with item_crash_point(LumosItem, tmp_path, attempts=10):
            with pytest.raises(WorkItemFailure) as excinfo:
                executor.execute(plan)
        [key] = plan.requests
        attempts = excinfo.value.failure_attempts[key]
        assert [f.attempt for f in attempts] == [1, 2]
        assert all(f.kind == "crash" for f in attempts)
        assert "crash" in str(excinfo.value)
