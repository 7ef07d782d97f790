"""Fault-injection subsystem: plans, fingerprints, masks, degradation.

Three contracts under test:

1. **Schedules are deterministic** — a :class:`FaultPlan` is a pure function
   of ``(config, num_devices, num_rounds)``, its RNG blocks are drawn in a
   fixed order so enabling one mechanism never shifts another's schedule,
   and the replay is bit-for-bit identical in a fresh process.
2. **Empty scenarios are invisible** — the default config and any empty
   scenario (whatever its ``fault_seed``) produce byte-identical arms
   (metrics, canonical ledger transcript, accountant, RNG state), and every
   scenario shares the fault-free pipeline stage keys (the pipeline prefix
   stays shared).
3. **The federation degrades gracefully** — availability masks suppress or
   drop messages with the right charging semantics, and the trainer
   survives rounds with zero participants.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import LumosSystem, default_config_for
from repro.core.lumos import artifact_keys
from repro.engine import ArtifactStore
from repro.engine.fingerprint import fingerprint_value
from repro.faults import (
    FaultPlan,
    FaultScenarioConfig,
    default_robustness_scenarios,
)
from repro.eval.runner import ExperimentScale, run_robustness_sweep
from repro.federation import FederatedEnvironment, MessageKind
from repro.graph import load_dataset, split_edges, split_nodes

from helpers.arms import run_lumos_arm
from helpers.oracles import exchange
from helpers.rng_contract import plan_digest, schedule_digest

GRAPH = load_dataset("facebook", seed=0, num_nodes=40)


def _config(faults=None):
    config = (
        default_config_for("facebook")
        .with_mcmc_iterations(10)
        .with_epochs(3)
        .with_seed(0)
    )
    return config.with_faults(faults) if faults is not None else config


def _arm(faults=None, task="supervised", store=None):
    store = ArtifactStore() if store is None else store
    return run_lumos_arm(GRAPH, _config(faults), store, task=task)


def _stage_keys(config):
    """Every stage's cache key for ``config``, over the graph a system runs on."""
    return artifact_keys(LumosSystem(GRAPH, config, store=ArtifactStore()).graph, config)


# --------------------------------------------------------------------------- #
# Scenario config
# --------------------------------------------------------------------------- #
class TestScenarioConfig:
    def test_default_is_empty(self):
        assert FaultScenarioConfig().is_empty()

    def test_fault_seed_does_not_make_a_scenario_nonempty(self):
        assert FaultScenarioConfig(fault_seed=99).is_empty()

    def test_join_only_churn_is_empty(self):
        # join without leave can never take a device offline.
        assert FaultScenarioConfig(join_rate=0.5).is_empty()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dropout_rate": 0.1},
            {"leave_rate": 0.1},
            {"straggler_rate": 0.1},
            {"message_loss_rate": 0.1},
        ],
    )
    def test_each_mechanism_makes_it_nonempty(self, kwargs):
        assert not FaultScenarioConfig(**kwargs).is_empty()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dropout_rate": 1.5},
            {"leave_rate": -0.1},
            {"straggler_multiplier": 0.5},
            {"round_deadline": 0.0},
            # A bool is not a number: dropout_rate=True dropped every device.
            {"dropout_rate": True},
            {"leave_rate": True},
            {"message_loss_rate": False},
            {"straggler_multiplier": True},
            {"round_deadline": True},
            {"fault_seed": True},
            {"fault_seed": 1.5},
            {"fault_seed": -1},
            # NaN compares false both ways and made NaN latencies.
            {"straggler_multiplier": float("nan")},
            {"round_deadline": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            FaultScenarioConfig(**kwargs)

    def test_default_scenarios_include_exactly_one_empty_baseline(self):
        scenarios = default_robustness_scenarios()
        empty = [name for name, cfg in scenarios.items() if cfg.is_empty()]
        assert empty == ["baseline"]
        assert len(scenarios) >= 5


# --------------------------------------------------------------------------- #
# Plan compilation
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_compile_is_deterministic(self):
        config = FaultScenarioConfig(
            dropout_rate=0.2, straggler_rate=0.3, round_deadline=2.0, fault_seed=7
        )
        first = FaultPlan.compile(config, 23, 11)
        second = FaultPlan.compile(config, 23, 11)
        assert plan_digest(first) == plan_digest(second)
        assert plan_digest(first) == schedule_digest(config, 23, 11)
        np.testing.assert_array_equal(first.online, second.online)
        np.testing.assert_array_equal(first.latency, second.latency)

    def test_block_draws_are_independent(self):
        # Enabling message loss must not shift the dropout schedule: the
        # loss block is drawn after (and independently of) the dropout
        # block, so ``online`` is bitwise identical across the two plans.
        base = FaultPlan.compile(
            FaultScenarioConfig(dropout_rate=0.3, fault_seed=5), 31, 9
        )
        lossy = FaultPlan.compile(
            FaultScenarioConfig(
                dropout_rate=0.3, message_loss_rate=0.5, fault_seed=5
            ),
            31,
            9,
        )
        np.testing.assert_array_equal(base.online, lossy.online)
        assert lossy.lost.sum() > 0
        assert not np.any(base.lost)

    def test_total_dropout_leaves_nobody_online(self):
        plan = FaultPlan.compile(FaultScenarioConfig(dropout_rate=1.0), 10, 4)
        assert not plan.online.any()
        assert not plan.participating.any()
        assert plan.summary()["mean_participation"] == 0.0

    def test_eviction_requires_deadline_and_online(self):
        config = FaultScenarioConfig(
            straggler_rate=0.5, straggler_multiplier=4.0, round_deadline=2.0,
            dropout_rate=0.3, fault_seed=3,
        )
        plan = FaultPlan.compile(config, 40, 8)
        assert plan.evicted.any()
        # evicted ⊆ online ∧ (latency > deadline); never both evicted & lost.
        assert np.all(plan.online[plan.evicted])
        assert np.all(plan.latency[plan.evicted] > 2.0)
        assert not np.any(plan.evicted & plan.lost)
        no_deadline = FaultPlan.compile(
            FaultScenarioConfig(
                straggler_rate=0.5, straggler_multiplier=4.0, fault_seed=3
            ),
            40,
            8,
        )
        assert not no_deadline.evicted.any()

    def test_latency_bounded_by_multiplier(self):
        plan = FaultPlan.compile(
            FaultScenarioConfig(straggler_rate=1.0, straggler_multiplier=3.0), 20, 5
        )
        assert plan.latency.min() >= 1.0
        assert plan.latency.max() <= 3.0
        assert plan.latency.max() > 1.0

    def test_empty_plan_is_full_participation(self):
        plan = FaultPlan.compile(FaultScenarioConfig(), 12, 6)
        assert plan.online.all() and plan.participating.all()
        assert plan.summary()["mean_participation"] == 1.0

    def test_distinct_scenarios_have_distinct_fingerprints(self):
        fingerprints = [
            fingerprint_value(config)
            for config in default_robustness_scenarios().values()
        ]
        assert len(set(fingerprints)) == len(fingerprints)

    @pytest.mark.parametrize(
        "config,digest",
        [
            (
                FaultScenarioConfig(join_rate=0.2, leave_rate=0.1, fault_seed=7),
                "5422048be634c28ef083d79f12613adb3998b65382f0acdbdc0679a59d65f87c",
            ),
            (
                FaultScenarioConfig(
                    join_rate=0.2, leave_rate=0.1, dropout_rate=0.15,
                    straggler_rate=0.3, straggler_multiplier=4.0,
                    round_deadline=2.5, message_loss_rate=0.1, fault_seed=11,
                ),
                "91d6319f840a327b721846c6ef201cf78ba07fc4071bfcf7a58a01f88a4568cd",
            ),
        ],
        ids=["churn-only", "every-mechanism"],
    )
    def test_schedule_digest_is_pinned(self, config, digest):
        # Recorded with the digest method ``FaultPlan`` used to carry; any
        # change to the block order or the mask algebra moves it.
        assert schedule_digest(config, 37, 9) == digest

    def test_replay_is_bit_identical_across_processes(self):
        config = FaultScenarioConfig(
            dropout_rate=0.15, join_rate=0.3, leave_rate=0.1,
            straggler_rate=0.2, round_deadline=2.5, message_loss_rate=0.05,
            fault_seed=16,
        )
        # spawn: the child imports everything afresh and inherits no state.
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            digest = pool.apply_async(schedule_digest, (config, 29, 7)).get(timeout=120)
        assert digest == schedule_digest(config, 29, 7)


# --------------------------------------------------------------------------- #
# Churn boundary probabilities
# --------------------------------------------------------------------------- #
class TestChurnBoundaries:
    """p = 0.0 / 1.0 churn chains: valid masks, no sibling stream shift.

    Uniform draws live in ``[0, 1)``, so the comparisons in the Markov chain
    are exact at both boundaries: ``u < 1.0`` always holds and ``u < 0.0``
    never does.  These tests pin the resulting all-online / all-offline /
    alternating schedules, and — via ``drain_churn_block`` on a twin
    generator — that the churn block consumes exactly its documented draws
    whatever the probabilities, so the dropout schedule never shifts.
    """

    def test_certain_join_never_leave_is_all_present(self):
        plan = FaultPlan.compile(
            FaultScenarioConfig(join_rate=1.0, leave_rate=0.0, fault_seed=3), 17, 9
        )
        assert plan.present.all() and plan.online.all()
        assert all(
            joins == [] and leaves == []
            for _, joins, leaves in plan.churn_events()
        )

    def test_never_join_certain_leave_is_all_absent(self):
        plan = FaultPlan.compile(
            FaultScenarioConfig(join_rate=0.0, leave_rate=1.0, fault_seed=3), 17, 9
        )
        assert not plan.present.any()
        assert not plan.online.any()
        # Everyone leaves in round 0 (the tree starts all-present) and never
        # returns.
        events = list(plan.churn_events())
        assert events[0][2] == list(range(17))
        assert all(
            joins == [] and leaves == [] for _, joins, leaves in events[1:]
        )

    def test_certain_join_and_leave_alternates_deterministically(self):
        plan = FaultPlan.compile(
            FaultScenarioConfig(join_rate=1.0, leave_rate=1.0, fault_seed=3), 17, 9
        )
        # After the stationary round-0 draw, every present device leaves and
        # every absent device joins — strict alternation, device by device.
        for r in range(1, plan.num_rounds):
            np.testing.assert_array_equal(
                plan.present[r], ~plan.present[r - 1]
            )
        for round_index, joins, leaves in plan.churn_events():
            assert not set(joins) & set(leaves)

    @pytest.mark.parametrize(
        "join_rate,leave_rate",
        [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)],
    )
    def test_churn_block_never_shifts_the_dropout_schedule(
        self, join_rate, leave_rate
    ):
        # Derive the expected dropout mask by draining the documented churn
        # block on a twin generator; the compiled plan's ``online`` must be
        # exactly ``present & ~expected_dropped`` for every churn setting.
        from helpers.rng_contract import drain_churn_block

        num_devices, num_rounds, seed = 23, 7, 11
        plan = FaultPlan.compile(
            FaultScenarioConfig(
                join_rate=join_rate,
                leave_rate=leave_rate,
                dropout_rate=0.3,
                fault_seed=seed,
            ),
            num_devices,
            num_rounds,
        )
        twin = np.random.default_rng(seed)
        drain_churn_block(twin, num_devices, num_rounds)
        expected_dropped = twin.random((num_rounds, num_devices)) < 0.3
        np.testing.assert_array_equal(
            plan.online, plan.present & ~expected_dropped
        )

    def test_present_matrix_is_excluded_from_schedule_digest(self):
        # ``present`` is a pure function of the same draws as ``online``;
        # hashing it would break every digest recorded before the
        # maintenance layer existed, so it is deliberately excluded.
        import dataclasses

        plan = FaultPlan.compile(
            FaultScenarioConfig(
                join_rate=0.5, leave_rate=0.5, dropout_rate=0.2, fault_seed=4
            ),
            13,
            6,
        )
        tampered = dataclasses.replace(
            plan, present=np.zeros_like(plan.present)
        )
        assert plan_digest(tampered) == plan_digest(plan)


# --------------------------------------------------------------------------- #
# Cache-key / fingerprint integration
# --------------------------------------------------------------------------- #
class TestFaultKeys:
    def test_stage_keys_are_fault_invariant(self):
        # Scenarios only change the training loop, never the pipeline
        # prefix — so every scenario shares the cached construction stages.
        hostile = FaultScenarioConfig(dropout_rate=0.3, fault_seed=11)
        assert _stage_keys(_config()) == _stage_keys(_config(hostile))

    def test_empty_scenario_arm_is_bit_identical(self):
        # The acceptance criterion: metrics, canonical ledger transcript,
        # accountant totals and RNG state all byte-equal.
        assert _arm() == _arm(FaultScenarioConfig(fault_seed=99))

    def test_empty_scenarios_give_identical_sweep_metrics(self):
        # An empty scenario is fault-free whatever its fault_seed: a sweep
        # over two of them reports the same metrics for both arms.
        results = run_robustness_sweep(
            "facebook",
            scenarios={
                "baseline": FaultScenarioConfig(),
                "reseeded": FaultScenarioConfig(fault_seed=99),
            },
            scale=ExperimentScale(num_nodes=40, epochs=3, mcmc_iterations=10, seed=0),
            store=ArtifactStore(),
        )
        assert list(results) == ["baseline", "reseeded"]
        assert results["baseline"] == results["reseeded"]


# --------------------------------------------------------------------------- #
# Environment availability semantics
# --------------------------------------------------------------------------- #
class TestAvailability:
    @pytest.fixture()
    def environment(self):
        graph = load_dataset("facebook", seed=0, num_nodes=12)
        return FederatedEnvironment.from_graph(graph)

    def test_no_mask_is_the_fast_path(self, environment):
        exchange(environment, 0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert environment.ledger.summary()["total_messages"] == 1
        assert len(environment.ledger.dropped) == 0
        assert "dropped_messages" not in environment.ledger.summary()

    def test_offline_sender_is_suppressed_and_uncharged(self, environment):
        mask = np.ones(environment.num_devices, dtype=bool)
        mask[0] = False
        environment.set_availability(mask)
        exchange(environment, 0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        summary = environment.ledger.summary()
        assert summary["total_messages"] == 0
        assert summary["total_bytes"] == 0
        assert summary["dropped_messages"] == 1
        assert summary["dropped_bytes"] == 10

    def test_offline_recipient_is_charged_but_undelivered(self, environment):
        mask = np.ones(environment.num_devices, dtype=bool)
        mask[1] = False
        environment.set_availability(mask)
        exchange(environment, 0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        summary = environment.ledger.summary()
        assert summary["total_messages"] == 1
        assert summary["total_bytes"] == 10
        assert summary["dropped_messages"] == 1
        assert summary["dropped_bytes"] == 10

    def test_clearing_the_mask_restores_full_availability(self, environment):
        environment.set_availability(np.zeros(environment.num_devices, dtype=bool))
        exchange(environment, 0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert environment.ledger.summary()["total_messages"] == 0
        environment.set_availability(None)
        exchange(environment, 0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert environment.ledger.summary()["total_messages"] == 1
        assert len(environment.ledger.dropped) == 1

    def test_mask_shape_is_validated(self, environment):
        with pytest.raises(ValueError):
            environment.set_availability(np.ones(3, dtype=bool))

    def test_reset_clears_drop_records(self, environment):
        environment.set_availability(np.zeros(environment.num_devices, dtype=bool))
        exchange(environment, 0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert len(environment.ledger.dropped) == 1
        environment.ledger.reset()
        assert len(environment.ledger.dropped) == 0
        assert "dropped_messages" not in environment.ledger.summary()


# --------------------------------------------------------------------------- #
# Graceful-degradation training
# --------------------------------------------------------------------------- #
class TestGracefulDegradation:
    def test_faulted_run_reports_a_fault_summary(self):
        record = _arm(FaultScenarioConfig(dropout_rate=0.4, fault_seed=11), task="robustness")
        value = record["value"]
        assert 0.0 < value["mean_participation"] < 1.0
        assert value["offline_device_rounds"] > 0
        assert 0.0 <= value["test_accuracy"] <= 1.0

    def test_total_dropout_skips_every_update_but_still_evaluates(self):
        record = _arm(FaultScenarioConfig(dropout_rate=1.0), task="robustness")
        value = record["value"]
        assert value["mean_participation"] == 0.0
        assert value["skipped_updates"] == 3  # one per epoch
        assert 0.0 <= value["test_accuracy"] <= 1.0

    def test_faulted_run_is_deterministic(self):
        config = FaultScenarioConfig(
            dropout_rate=0.2, straggler_rate=0.2, round_deadline=2.0,
            message_loss_rate=0.1, fault_seed=4,
        )
        first = _arm(config, task="robustness")
        second = _arm(config, task="robustness")
        assert first == second
        # The scenario shares its whole pipeline prefix with the fault-free
        # arm, so a store that arm warmed must serve it the same payload.
        warm = ArtifactStore()
        _arm(task="robustness", store=warm)
        assert _arm(config, task="robustness", store=warm) == first
        assert _arm(config, task="robustness", store=warm) == first

    def test_unsupervised_training_rejects_fault_scenarios(self):
        from repro.core import LumosSystem

        graph = load_dataset("facebook", seed=0, num_nodes=40)
        system = LumosSystem(
            graph,
            _config(FaultScenarioConfig(dropout_rate=0.3)),
            store=ArtifactStore(),
        )
        with pytest.raises(ValueError, match="unsupervised"):
            system.run_unsupervised(split_edges(graph, seed=0))
