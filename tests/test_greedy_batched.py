"""Equivalence tests pinning batched greedy initialisation to the per-edge loop.

``greedy_initialization`` replaces the per-edge secure-comparison protocol
loop of Alg. 1 with one vectorised comparison block and one columnar ledger
event; these tests call the per-edge oracle
``greedy_initialization_reference`` directly and assert that the difference
is purely one of implementation: identical selected sets / assignments,
accountant totals *and* capped transcript log, canonical ledger transcript,
and RNG stream consumption (the greedy phase draws nothing from the shared
stream either way).
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.equivalence import Run, assert_equivalent_runs
from helpers.graphs import generate_small_world, generate_star
from helpers.oracles import (
    construct_with_oracles,
    greedy_initialization_reference,
    log_degree_bucket_reference,
    secure_compare_reference,
    transcript_reveals_only_sizes,
)

from repro.core import (
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
)
from repro.core.greedy import log_degree_buckets
from repro.crypto import SecureComparator, TranscriptAccountant, comparison_cost
from repro.federation import FederatedEnvironment
from repro.graph import generate_facebook_like


def _run(make_environment, initialize, seed: int = 0) -> Run:
    environment = make_environment()
    accountant = TranscriptAccountant()
    rng = np.random.default_rng(seed)
    assignment = initialize(environment, accountant=accountant, rng=rng)
    return Run(assignment, environment, accountant, rng)


def _assert_equivalent(make_environment, seed: int = 0):
    fast = _run(make_environment, greedy_initialization, seed)
    slow = _run(make_environment, greedy_initialization_reference, seed)
    assert_equivalent_runs(fast, slow)
    assert (
        fast.environment.workload_array().tolist() == slow.environment.workload_array().tolist()
    )
    # RNG stream contract: neither draws from the shared stream.
    untouched = np.random.default_rng(seed)
    assert fast.rng.bit_generator.state == untouched.bit_generator.state


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_facebook_like(self, seed):
        graph = generate_facebook_like(seed=3, num_nodes=120)
        _assert_equivalent(lambda: FederatedEnvironment.from_graph(graph, seed=0), seed)

    def test_small_world(self):
        graph = generate_small_world(num_nodes=60, k=4, seed=5)
        _assert_equivalent(lambda: FederatedEnvironment.from_graph(graph, seed=0))

    def test_star(self):
        graph = generate_star(num_leaves=8, seed=2)
        _assert_equivalent(lambda: FederatedEnvironment.from_graph(graph, seed=0))

    def test_edgeless_graph(self):
        from repro.graph import Graph

        graph = Graph(
            num_nodes=5,
            edges=np.zeros((0, 2), dtype=np.int64),
            features=np.random.default_rng(0).random((5, 4)),
        )
        _assert_equivalent(lambda: FederatedEnvironment.from_graph(graph, seed=0))

    def test_auto_resolves_to_batched(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        greedy_initialization(environment, rng=np.random.default_rng(0))
        descriptions = {description for _kind, description in environment.ledger.messages.labels}
        assert "greedy-degree-comparison" in descriptions

    def test_batched_transcript_is_zero_knowledge(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        accountant = TranscriptAccountant()
        greedy_initialization(
            environment, accountant=accountant, rng=np.random.default_rng(0)
        )
        assert transcript_reveals_only_sizes(accountant)


class TestConstructorAndEngineKeys:
    def test_constructor_level_equivalence(self, social_graph):
        config = TreeConstructorConfig(mcmc_iterations=40)
        fast = TreeConstructor(config, rng=np.random.default_rng(0)).construct(
            FederatedEnvironment.from_graph(social_graph, seed=0)
        )
        slow_greedy, slow, slow_transcript = construct_with_oracles(
            FederatedEnvironment.from_graph(social_graph, seed=0),
            config,
            np.random.default_rng(0),
        )
        assert fast.assignment.as_lists() == slow.assignment.as_lists()
        greedy = greedy_initialization(
            FederatedEnvironment.from_graph(social_graph, seed=0),
            accountant=TranscriptAccountant(),
            bit_width=config.degree_comparison_bits,
            rng=np.random.default_rng(0),
        )
        assert greedy.as_lists() == slow_greedy.as_lists()
        assert fast.mcmc_result.objective_history == slow.objective_history
        assert fast.transcript.snapshot() == slow_transcript.snapshot()


class TestBatchedComparatorParity:
    def test_compare_batch_matches_loop(self):
        rng = np.random.default_rng(11)
        left = rng.integers(0, 200, size=400)
        right = rng.integers(0, 200, size=400)

        loop_acc = TranscriptAccountant()
        loop = SecureComparator(bit_width=8, accountant=loop_acc)
        loop_outcomes = [secure_compare_reference(loop, int(l), int(r))
                         for l, r in zip(left, right)]

        batch_acc = TranscriptAccountant()
        batch = SecureComparator(bit_width=8, accountant=batch_acc).compare_batch(
            left, right
        )
        np.testing.assert_array_equal(batch.left_ge_right, np.asarray(loop_outcomes))
        assert batch_acc.snapshot() == loop_acc.snapshot()
        assert batch_acc._log == loop_acc._log

    def test_compare_batch_validates_bounds(self):
        comparator = SecureComparator(bit_width=8)
        with pytest.raises(ValueError):
            comparator.compare_batch(np.array([-1]), np.array([0]))
        with pytest.raises(ValueError):
            comparator.compare_batch(np.array([0]), np.array([256]))
        with pytest.raises(ValueError):
            comparator.compare_batch(np.array([[0]]), np.array([[0]]))

    def test_comparison_cost_matches_executed_protocol(self):
        for bit_width in (4, 8, 24, 32):
            accountant = TranscriptAccountant()
            comparator = SecureComparator(bit_width=bit_width, accountant=accountant)
            assert secure_compare_reference(comparator, 3, 2)
            cost = comparison_cost(bit_width)
            assert accountant.bits == cost.bits
            assert accountant.ot_invocations == cost.ot_invocations
            assert accountant.messages == cost.messages
            assert accountant._log == [f"{d}:{b}" for d, b in cost.pattern]

    def test_log_degree_buckets_matches_scalar(self):
        degrees = np.arange(0, 5000)
        expected = np.asarray([log_degree_bucket_reference(int(d)) for d in degrees])
        np.testing.assert_array_equal(log_degree_buckets(degrees), expected)


class TestRecordPattern:
    def test_counters_and_log_match_repeated_record(self):
        pattern = [("ot-n", 144), ("and-gate", 8)]
        reference = TranscriptAccountant()
        for _ in range(7):
            for description, bits in pattern:
                reference.record(description, bits)
        bulk = TranscriptAccountant()
        bulk.record_pattern(pattern, 7)
        assert bulk.snapshot() == reference.snapshot()
        assert bulk._log == reference._log

    def test_log_cap_is_respected_exactly(self):
        pattern = [("ot-n", 144)] * 3
        count = TranscriptAccountant.LOG_CAP  # 3 * count entries >> cap
        reference = TranscriptAccountant()
        for _ in range(count):
            for description, bits in pattern:
                reference.record(description, bits)
        bulk = TranscriptAccountant()
        bulk.record_pattern(pattern, count)
        assert len(bulk._log) == TranscriptAccountant.LOG_CAP
        assert bulk._log == reference._log
        assert bulk.snapshot() == reference.snapshot()

    def test_zero_count_and_empty_pattern_are_noops(self):
        accountant = TranscriptAccountant()
        accountant.record_pattern([], 5)
        accountant.record_pattern([("ot", 1)], 0)
        assert accountant.snapshot() == TranscriptAccountant().snapshot()
        assert accountant._log == []
