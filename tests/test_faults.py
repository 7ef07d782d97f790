"""Fault-injection subsystem: plans, fingerprints, masks, degradation.

Three contracts under test:

1. **Schedules are deterministic** — a :class:`FaultPlan` is a pure function
   of ``(config, num_devices, num_rounds)``, its RNG blocks are drawn in a
   fixed order so enabling one mechanism never shifts another's schedule,
   and the replay is bit-for-bit identical in a worker process.
2. **Empty scenarios are invisible** — the default config and any empty
   scenario (whatever its ``fault_seed``) produce the *same* work-item key
   and byte-identical payloads (metrics, canonical ledger transcript,
   accountant, RNG state), while non-empty scenarios get distinct keys but
   identical stage chains (the pipeline prefix stays shared).
3. **The federation degrades gracefully** — availability masks suppress or
   drop messages with the right charging semantics, and the trainer
   survives rounds with zero participants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import default_config_for
from repro.engine import ArtifactStore
from repro.faults import (
    FaultPlan,
    FaultScenarioConfig,
    default_robustness_scenarios,
    schedule_digest,
)
from repro.federation import SERVER_ID, FederatedEnvironment, MessageKind
from repro.graph import load_dataset, split_edges, split_nodes
from repro.runtime import (
    CallableItem,
    GraphSpec,
    LumosItem,
    ProcessExecutor,
    WorkPlan,
)

SPEC = GraphSpec(dataset="facebook", seed=0, num_nodes=40)


def _config(faults=None):
    config = (
        default_config_for("facebook")
        .with_mcmc_iterations(10)
        .with_epochs(3)
        .with_seed(0)
    )
    return config.with_faults(faults) if faults is not None else config


def _item(faults=None, task="supervised"):
    return LumosItem(
        graph_spec=SPEC, config=_config(faults), task=task, keep_transcript=True
    )


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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
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
        assert first.schedule_digest() == second.schedule_digest()
        assert first.schedule_digest() == schedule_digest(config, 23, 11)
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
        np.testing.assert_array_equal(
            plan.participation_fraction(), np.zeros(4)
        )

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
        assert plan.is_empty()
        assert plan.online.all() and plan.participating.all()
        assert plan.summary()["mean_participation"] == 1.0

    def test_distinct_scenarios_have_distinct_fingerprints(self):
        plans = [
            FaultPlan.compile(config, 10, 4)
            for config in default_robustness_scenarios().values()
        ]
        fingerprints = [plan.fingerprint() for plan in plans]
        assert len(set(fingerprints)) == len(fingerprints)

    def test_replay_is_bit_identical_across_processes(self):
        config = FaultScenarioConfig(
            dropout_rate=0.15, join_rate=0.3, leave_rate=0.1,
            straggler_rate=0.2, round_deadline=2.5, message_loss_rate=0.05,
            fault_seed=16,
        )
        item = CallableItem(
            target="repro.faults.plan:schedule_digest",
            args=(config, 29, 7),
            label="schedule-digest",
        )
        report = ProcessExecutor(max_workers=1).execute(WorkPlan([item]))
        assert report.records[item.key()].value == schedule_digest(config, 29, 7)


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
        assert tampered.schedule_digest() == plan.schedule_digest()


# --------------------------------------------------------------------------- #
# Cache-key / fingerprint integration
# --------------------------------------------------------------------------- #
class TestFaultKeys:
    def test_empty_scenario_reproduces_the_fault_free_key(self):
        # An empty scenario must be the *same work item* as the default
        # config — including when its fault_seed differs — so pre-PR cache
        # keys (which had no fault component at all) stay valid.
        default = _item()
        explicit = _item(FaultScenarioConfig())
        reseeded = _item(FaultScenarioConfig(fault_seed=99))
        assert default.key() == explicit.key() == reseeded.key()
        assert "faults=" not in default.key()

    def test_distinct_scenarios_get_distinct_keys(self):
        keys = {
            _item(config).key()
            for config in default_robustness_scenarios().values()
        }
        keys.add(_item().key())
        # all non-empty scenarios distinct; baseline collapses onto default.
        scenarios = default_robustness_scenarios()
        nonempty = sum(1 for cfg in scenarios.values() if not cfg.is_empty())
        assert len(keys) == nonempty + 1

    def test_fault_seed_distinguishes_nonempty_scenarios(self):
        a = _item(FaultScenarioConfig(dropout_rate=0.3, fault_seed=1))
        b = _item(FaultScenarioConfig(dropout_rate=0.3, fault_seed=2))
        assert a.key() != b.key()

    def test_stage_chain_is_fault_invariant(self):
        # Scenarios only change the training loop, never the pipeline
        # prefix — so every scenario shares the cached construction stages.
        hostile = FaultScenarioConfig(dropout_rate=0.3, fault_seed=11)
        assert _item().stage_chain() == _item(hostile).stage_chain()

    def test_empty_scenario_payload_is_bit_identical(self):
        # The acceptance criterion: metrics, canonical ledger transcript,
        # accountant totals and RNG state all byte-equal.
        baseline = _item().execute(ArtifactStore())
        reseeded = _item(FaultScenarioConfig(fault_seed=99)).execute(ArtifactStore())
        assert baseline == reseeded


# --------------------------------------------------------------------------- #
# Environment availability semantics
# --------------------------------------------------------------------------- #
class TestAvailability:
    @pytest.fixture()
    def environment(self):
        graph = load_dataset("facebook", seed=0, num_nodes=12)
        return FederatedEnvironment.from_graph(graph)

    def test_no_mask_is_the_fast_path(self, environment):
        environment.exchange(0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert environment.ledger.total_messages() == 1
        assert environment.ledger.total_dropped_messages() == 0
        assert "dropped_messages" not in environment.ledger.summary()

    def test_offline_sender_is_suppressed_and_uncharged(self, environment):
        mask = np.ones(environment.num_devices, dtype=bool)
        mask[0] = False
        environment.set_availability(mask)
        environment.exchange(0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert environment.ledger.total_messages() == 0
        assert environment.ledger.total_bytes() == 0
        assert environment.ledger.total_dropped_messages() == 1
        assert environment.ledger.total_dropped_bytes() == 10

    def test_offline_recipient_is_charged_but_undelivered(self, environment):
        mask = np.ones(environment.num_devices, dtype=bool)
        mask[1] = False
        environment.set_availability(mask)
        environment.exchange(0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert environment.ledger.total_messages() == 1
        assert environment.ledger.total_bytes() == 10
        assert environment.ledger.total_dropped_messages() == 1
        summary = environment.ledger.summary()
        assert summary["dropped_messages"] == 1
        assert summary["dropped_bytes"] == 10

    def test_server_is_always_available(self, environment):
        environment.set_availability(np.zeros(environment.num_devices, dtype=bool))
        assert environment.is_available(SERVER_ID)

    def test_clearing_the_mask_restores_full_availability(self, environment):
        environment.set_availability(np.zeros(environment.num_devices, dtype=bool))
        assert not environment.is_available(0)
        environment.set_availability(None)
        assert environment.is_available(0)

    def test_mask_shape_is_validated(self, environment):
        with pytest.raises(ValueError):
            environment.set_availability(np.ones(3, dtype=bool))

    def test_reset_clears_drop_records(self, environment):
        environment.set_availability(np.zeros(environment.num_devices, dtype=bool))
        environment.exchange(0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        assert environment.ledger.total_dropped_messages() == 1
        environment.ledger.reset()
        assert environment.ledger.total_dropped_messages() == 0


# --------------------------------------------------------------------------- #
# Graceful-degradation training
# --------------------------------------------------------------------------- #
class TestGracefulDegradation:
    def test_faulted_run_reports_a_fault_summary(self):
        record = _item(
            FaultScenarioConfig(dropout_rate=0.4, fault_seed=11), task="robustness"
        ).execute(ArtifactStore())
        value = record["value"]
        assert 0.0 < value["mean_participation"] < 1.0
        assert value["offline_device_rounds"] > 0
        assert 0.0 <= value["test_accuracy"] <= 1.0

    def test_total_dropout_skips_every_update_but_still_evaluates(self):
        record = _item(
            FaultScenarioConfig(dropout_rate=1.0), task="robustness"
        ).execute(ArtifactStore())
        value = record["value"]
        assert value["mean_participation"] == 0.0
        assert value["skipped_updates"] == 3  # one per epoch
        assert 0.0 <= value["test_accuracy"] <= 1.0

    def test_faulted_run_is_deterministic(self):
        config = FaultScenarioConfig(
            dropout_rate=0.2, straggler_rate=0.2, round_deadline=2.0,
            message_loss_rate=0.1, fault_seed=4,
        )
        first = _item(config, task="robustness").execute(ArtifactStore())
        second = _item(config, task="robustness").execute(ArtifactStore())
        assert first == second
        # The scenario shares its whole pipeline prefix with the fault-free
        # arm, so a store that arm warmed must serve it the same payload.
        warm = ArtifactStore()
        _item(task="robustness").execute(warm)
        assert _item(config, task="robustness").execute(warm) == first
        assert _item(config, task="robustness").execute(warm) == first

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
