"""Tests of the parallel execution runtime's scheduling machinery.

Covers the plan layer (content-keyed dedupe, shared-prefix selection) and
the process executor's failure semantics: crashed workers are respawned and
their items retried, timed-out items are killed and retried, deterministic
in-worker exceptions and exhausted retries are *reported* — never silently
dropped.

The bit-for-bit serial-vs-process equivalence of real experiment runs lives
in ``tests/test_runner_executors.py``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.core import default_config_for
from repro.runtime import (
    CallableItem,
    GraphSpec,
    LumosItem,
    ProcessExecutor,
    SerialExecutor,
    WorkItemFailure,
    WorkPlan,
    shared_prefix_plan,
)

SPEC = GraphSpec(dataset="facebook", seed=0, num_nodes=40)


def _config(epsilon=2.0):
    return (
        default_config_for("facebook")
        .with_mcmc_iterations(10)
        .with_epochs(3)
        .with_epsilon(epsilon)
    )


def _sweep_item(epsilon, **kwargs):
    return LumosItem(
        graph_spec=SPEC, config=_config(epsilon), task="supervised",
        split_seed=0, label=f"eps={epsilon}", **kwargs,
    )


# --------------------------------------------------------------------------- #
# Worker-side callables (imported by name in worker processes)
# --------------------------------------------------------------------------- #
def square(x):
    return x * x


def crash_once(sentinel, value):
    """Kill the worker hard on the first attempt, succeed on the retry."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        os._exit(41)
    return value


def hang_once(sentinel, value):
    """Blow the deadline on the first attempt, succeed on the retry."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        time.sleep(60.0)
    return value


def always_crash():
    os._exit(43)


def raise_error():
    raise ValueError("deterministic failure")


def _callable(function, *args, **kwargs):
    return CallableItem(
        target=f"{__name__}:{function.__name__}",
        args=args,
        kwargs=tuple(sorted(kwargs.items())),
        label=function.__name__,
    )


# --------------------------------------------------------------------------- #
# Plan layer
# --------------------------------------------------------------------------- #
class TestWorkPlan:
    def test_colliding_keys_dedupe_to_one_item(self):
        plan = WorkPlan()
        first = plan.add(_sweep_item(0.5))
        second = plan.add(_sweep_item(2.0))
        duplicate = plan.add(_sweep_item(0.5))
        assert duplicate == first and first != second
        assert len(plan) == 2 and plan.duplicate_requests == 1
        assert plan.requests == [first, second, first]

    def test_epsilon_sweep_shares_prefix_through_tree_batch(self):
        items = [_sweep_item(epsilon) for epsilon in (0.5, 1.0, 2.0)]
        runs = shared_prefix_plan(items)
        assert len(runs) == 1
        # tree_batch is keyed on the construction (not epsilon), so the
        # deepest shared invocation is the batch itself; the warm-up
        # persists the full 5-stage prefix of the representative.
        assert runs[0].through == "tree_batch"
        assert len(runs[0].persist_keys) == 5

    def test_ablation_arms_share_only_the_partition(self):
        configs = [
            _config(),
            _config().without_virtual_nodes(),
            _config().without_tree_trimming(),
        ]
        items = [
            LumosItem(graph_spec=SPEC, config=config, task="supervised", split_seed=0)
            for config in configs
        ]
        runs = shared_prefix_plan(items)
        assert [run.through for run in runs] == ["partition"]

    def test_items_without_chains_produce_no_warmups(self):
        assert shared_prefix_plan([_callable(square, 3)]) == []


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class TestExecutors:
    def test_serial_executor_runs_in_plan_order(self):
        plan = WorkPlan([_callable(square, value) for value in (2, 3, 4)])
        report = SerialExecutor().execute(plan)
        assert plan.values(report.records) == [4, 9, 16]
        assert report.stats["executor"] == "serial"

    def test_process_executor_merges_deterministically(self):
        plan = WorkPlan([_callable(square, value) for value in range(6)])
        report = ProcessExecutor(max_workers=3).execute(plan)
        assert plan.values(report.records) == [0, 1, 4, 9, 16, 25]
        assert report.stats["crashes"] == 0 and not report.failures

    def test_crashed_worker_item_is_retried(self, tmp_path):
        sentinel = tmp_path / "crash-sentinel"
        plan = WorkPlan([
            _callable(crash_once, str(sentinel), 7),
            _callable(square, 5),
        ])
        report = ProcessExecutor(max_workers=2, retries=1).execute(plan)
        assert plan.values(report.records) == [7, 25]
        assert report.stats["crashes"] >= 1
        assert report.stats["retries_used"] >= 1
        assert report.stats["respawns"] >= 1
        [crash_record] = [r for r in report.records.values() if r.label == "crash_once"]
        assert crash_record.attempts == 2

    def test_timed_out_item_is_killed_and_retried(self, tmp_path):
        sentinel = tmp_path / "hang-sentinel"
        item = CallableItem(
            target=f"{__name__}:hang_once",
            args=(str(sentinel), 11),
            label="hang_once",
            timeout=1.5,
        )
        report = ProcessExecutor(max_workers=1, retries=1).execute(WorkPlan([item]))
        assert report.records[item.key()].value == 11
        assert report.stats["timeouts"] >= 1
        assert report.records[item.key()].attempts == 2

    def test_exhausted_retries_are_reported_never_dropped(self):
        plan = WorkPlan([_callable(always_crash)])
        with pytest.raises(WorkItemFailure) as excinfo:
            ProcessExecutor(max_workers=1, retries=1).execute(plan)
        assert "always_crash" in str(excinfo.value)
        report = excinfo.value.report
        assert len(report.failures) == 1 and not report.records

        lenient = ProcessExecutor(max_workers=1, retries=0, strict=False)
        report = lenient.execute(plan)
        assert list(report.failures) == [plan.requests[0]]

    def test_in_worker_exception_is_reported_with_traceback(self):
        plan = WorkPlan([_callable(raise_error)])
        with pytest.raises(WorkItemFailure) as excinfo:
            ProcessExecutor(max_workers=1).execute(plan)
        [reason] = excinfo.value.failures.values()
        assert "deterministic failure" in reason and "ValueError" in reason
