"""Equivalence tests for the batched secure-mode construction kernels.

The batched secure kernels (the packed table-OT simulation,
``SecureComparator.compare_batch(execute=True)``, the secure greedy kernel
and the incremental balancer's secure Alg. 3 path) must be *bit-for-bit*
indistinguishable from the per-comparison reference loops in every recorded
observable: outcomes / selected sets / assignments, accountant counters and
capped transcript log, canonical ledger transcript, and final RNG state.
The RNG block-draw contract of every kernel is pinned through
``helpers.rng_contract.assert_stream_contract``.

The randomized property sweeps run a bounded number of cases in tier-1; the
``slow``-marked variants widen them for local runs (``pytest -m slow``).
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import numpy as np
import pytest

from helpers.graphs import generate_small_world, generate_star
from helpers.oracles import (
    construct_with_oracles,
    greedy_initialization_reference,
    mcmc_run_reference,
    secure_argmax_reference,
    secure_compare_reference,
    transcript_reveals_only_sizes,
)
from helpers.rng_contract import assert_stream_contract, clone_generator

from repro.core import (
    MCMCBalancer,
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
)
from repro.crypto import SecureComparator, TranscriptAccountant
from repro.crypto.oblivious_transfer import transfer_packed_table_batch
from repro.federation import FederatedEnvironment
from repro.graph import generate_facebook_like

BIT_WIDTHS = (8, 16, 32, 64)


def _edge_and_random_operands(bit_width: int, seed: int, count: int = 40):
    """Random operand pairs plus the protocol's edge values (0, equal, max)."""
    rng = np.random.default_rng(seed)
    top = (1 << bit_width) - 1
    draw_top = min(top, (1 << 62) - 1)
    left = [int(rng.integers(0, draw_top + 1)) for _ in range(count)]
    right = [int(rng.integers(0, draw_top + 1)) for _ in range(count)]
    equal = int(rng.integers(0, draw_top + 1))
    left += [0, top, top, 0, equal, top]
    right += [top, 0, top, 0, equal, top]
    return left, right


def _compare_looped(bit_width, left, right):
    accountant = TranscriptAccountant()
    comparator = SecureComparator(bit_width=bit_width, accountant=accountant)
    outcomes = [secure_compare_reference(comparator, l, r) for l, r in zip(left, right)]
    return outcomes, accountant


def _compare_batched(bit_width, left, right, execute):
    accountant = TranscriptAccountant()
    comparator = SecureComparator(bit_width=bit_width, accountant=accountant)
    rng = np.random.default_rng(99)
    batch = assert_stream_contract(
        lambda _: comparator.compare_batch(left, right, execute=execute), rng, 0
    )
    return [bool(v) for v in batch.left_ge_right], accountant


class TestCompareBatchEquivalence:
    """`compare_batch` (executed protocol) vs the one-at-a-time oracle."""

    @pytest.mark.parametrize("bit_width", BIT_WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_executed_batch_matches_loop(self, bit_width, seed):
        left, right = _edge_and_random_operands(bit_width, seed)
        loop_outcomes, loop_acc = _compare_looped(bit_width, left, right)
        batch_outcomes, batch_acc = _compare_batched(bit_width, left, right, True)
        assert batch_outcomes == loop_outcomes
        assert batch_acc.snapshot() == loop_acc.snapshot()
        assert batch_acc._log == loop_acc._log
        assert transcript_reveals_only_sizes(batch_acc)

    @pytest.mark.parametrize("bit_width", BIT_WIDTHS)
    def test_analytic_and_executed_paths_agree(self, bit_width):
        left, right = _edge_and_random_operands(bit_width, 3)
        analytic = _compare_batched(bit_width, left, right, False)
        executed = _compare_batched(bit_width, left, right, True)
        assert analytic[0] == executed[0]
        assert analytic[1].snapshot() == executed[1].snapshot()
        assert analytic[1]._log == executed[1]._log

    @pytest.mark.slow
    @pytest.mark.parametrize("bit_width", BIT_WIDTHS)
    @pytest.mark.parametrize("seed", range(2, 12))
    def test_executed_batch_matches_loop_wide(self, bit_width, seed):
        left, right = _edge_and_random_operands(bit_width, seed, count=300)
        loop_outcomes, loop_acc = _compare_looped(bit_width, left, right)
        batch_outcomes, batch_acc = _compare_batched(bit_width, left, right, True)
        assert batch_outcomes == loop_outcomes
        assert batch_acc.snapshot() == loop_acc.snapshot()
        assert batch_acc._log == loop_acc._log

class TestOTBatchContracts:
    """The packed table OT: what the receiver learns, and no RNG draws."""

    def test_packed_table_batch_draws_nothing_and_looks_up_the_table(self):
        values = np.random.default_rng(2)
        tables = values.integers(0, 1 << 16, size=(3, 40)).astype(np.uint16)
        choices = values.integers(0, 16, size=(3, 40)).astype(np.uint8)
        got = assert_stream_contract(
            lambda _: transfer_packed_table_batch(tables, choices, 16),
            np.random.default_rng(11),
            0,
        )
        # The receiver learns entry ``choice`` of the unpacked 16-entry table.
        expected = [
            [(int(word) >> entry) & 1 for entry in range(16)][int(choice)]
            for word, choice in zip(tables.ravel(), choices.ravel())
        ]
        assert got.dtype == bool and got.shape == tables.shape
        assert got.ravel().tolist() == [bool(bit) for bit in expected]

    def test_packed_table_batch_validation(self):
        words = np.array([3, 5], dtype=np.uint16)
        with pytest.raises(ValueError):  # a choice past the table
            transfer_packed_table_batch(words, np.array([0, 16], dtype=np.uint8), 16)
        with pytest.raises(ValueError):  # a table wider than its word
            transfer_packed_table_batch(words, np.array([0, 1], dtype=np.uint8), 32)
        with pytest.raises(ValueError):  # shapes differ
            transfer_packed_table_batch(words, np.array([0], dtype=np.uint8), 16)
        with pytest.raises(ValueError):  # signed shifts are not table indices
            transfer_packed_table_batch(words, np.array([0, -1]), 16)

    def test_clear_batched_kernels_draw_nothing(self, social_graph):
        """The clear kernels' prose 'draws nothing' contract, now executable."""
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        assert_stream_contract(
            lambda generator: greedy_initialization(environment, rng=generator),
            np.random.default_rng(0),
            0,
        )
        comparator = SecureComparator(bit_width=8)
        assert_stream_contract(
            lambda _: comparator.compare_batch([1, 2], [2, 1]),
            np.random.default_rng(1),
            0,
        )


def _argmax_cases(bit_width: int):
    top = (1 << bit_width) - 1
    rng = np.random.default_rng(bit_width)
    draws = [int(v) for v in rng.integers(0, min(top, (1 << 62) - 1), size=30, endpoint=True)]
    return {
        "random": draws,
        "rising": sorted(draws),
        "falling": sorted(draws, reverse=True),
        "ties-earliest-wins": [3, 7, 7, 1, 7, 0],
        "late-tie-with-first": [top, 0, top],
        "single": [5],
        "all-equal": [9] * 6,
        "top-of-range": [0, top, top - 1, top],
    }


class TestBatchedArgmax:
    """`argmax` (one verified executed batch) vs the scalar scan it replaced."""

    @pytest.mark.parametrize("bit_width", BIT_WIDTHS)
    def test_matches_the_scalar_scan(self, bit_width):
        for label, values in _argmax_cases(bit_width).items():
            loop_acc = TranscriptAccountant()
            expected = secure_argmax_reference(
                SecureComparator(bit_width=bit_width, accountant=loop_acc), values
            )
            batch_acc = TranscriptAccountant()
            comparator = SecureComparator(bit_width=bit_width, accountant=batch_acc)
            got = assert_stream_contract(
                lambda _: comparator.argmax(values), np.random.default_rng(1), 0
            )
            assert got == expected == values.index(max(values)), label
            assert batch_acc.snapshot() == loop_acc.snapshot(), label
            assert batch_acc._log == loop_acc._log, label

    def test_rejects_what_the_scan_rejected(self):
        comparator = SecureComparator(bit_width=8)
        with pytest.raises(ValueError):
            comparator.argmax([])
        with pytest.raises(ValueError):
            comparator.argmax([1, 256])
        with pytest.raises(ValueError):
            comparator.argmax([1, -1])


@pytest.fixture()
def zero_bit_ot(monkeypatch):
    """A table OT whose receiver learns all-zero bits, whatever was sent."""
    monkeypatch.setattr(
        "repro.crypto.secure_compare.transfer_packed_table_batch",
        lambda tables, choices, table_size: np.zeros(np.shape(choices), dtype=bool),
    )


@pytest.mark.usefixtures("zero_bit_ot")
class TestOutcomesDeriveOnlyFromOTOutputs:
    """ROADMAP invariant: no plaintext side path produces a comparison bit."""

    def test_compare_batch_returns_what_the_ot_returned(self):
        comparator = SecureComparator(bit_width=16)
        left, right = _edge_and_random_operands(16, 4)
        batch = comparator.compare_batch(left, right, execute=True)
        assert any(l >= r for l, r in zip(left, right))
        assert not batch.left_ge_right.any()

    def test_argmax_refuses_an_answer_the_protocol_did_not_produce(self):
        comparator = SecureComparator(bit_width=16)
        with pytest.raises(RuntimeError, match="secure argmax disagrees"):
            comparator.argmax([1, 5, 3])

    def test_secure_alg3_refuses_an_answer_the_protocol_did_not_produce(self):
        environment = FederatedEnvironment.from_graph(
            generate_small_world(num_nodes=30, k=4, seed=9), seed=0
        )
        initial = greedy_initialization(environment, rng=np.random.default_rng(0))
        balancer = MCMCBalancer(
            environment, iterations=3, rng=np.random.default_rng(7), secure=True
        )
        with pytest.raises(RuntimeError, match="secure batched Alg. 3 disagrees"):
            balancer.run(initial)


def _run_secure_greedy(make_environment, oracle, seed=0):
    environment = make_environment()
    accountant = TranscriptAccountant()
    # The per-edge oracle always executes the protocol; the production block
    # does under secure=True.
    initialize = (
        greedy_initialization_reference
        if oracle
        else partial(greedy_initialization, secure=True)
    )
    assignment = assert_stream_contract(
        lambda generator: initialize(environment, accountant=accountant, rng=generator),
        np.random.default_rng(seed),
        0,  # greedy is RNG-transparent on both paths, secure included
    )
    return assignment, environment, accountant


class TestSecureGreedyEquivalence:
    @pytest.mark.parametrize(
        "make_environment",
        [
            lambda: FederatedEnvironment.from_graph(
                generate_facebook_like(seed=3, num_nodes=80), seed=0
            ),
            lambda: FederatedEnvironment.from_graph(
                generate_star(num_leaves=8, seed=2), seed=0
            ),
        ],
        ids=["facebook", "star"],
    )
    def test_secure_batched_matches_reference(self, make_environment):
        fast, fast_env, fast_acc = _run_secure_greedy(make_environment, oracle=False)
        slow, slow_env, slow_acc = _run_secure_greedy(make_environment, oracle=True)
        assert fast.as_lists() == slow.as_lists()
        assert fast_acc.snapshot() == slow_acc.snapshot()
        assert fast_acc._log == slow_acc._log
        assert fast_env.ledger.message_records() == slow_env.ledger.message_records()
        assert fast_env.ledger.summary(fast_env.num_devices) == slow_env.ledger.summary(
            slow_env.num_devices
        )


def _run_secure_balancer(graph, oracle, seed=0, iterations=25):
    environment = FederatedEnvironment.from_graph(graph, seed=0)
    initial = greedy_initialization(environment, rng=np.random.default_rng(seed))
    balancer = MCMCBalancer(
        environment,
        iterations=iterations,
        rng=np.random.default_rng(seed + 7),
        secure=True,
    )
    result = mcmc_run_reference(balancer, initial) if oracle else balancer.run(initial)
    return result, environment, balancer.accountant


def _assert_secure_balancing_equivalent(graph, seed=0, iterations=25):
    fast, fast_env, fast_acc = _run_secure_balancer(
        graph, oracle=False, seed=seed, iterations=iterations
    )
    slow, slow_env, slow_acc = _run_secure_balancer(
        graph, oracle=True, seed=seed, iterations=iterations
    )
    assert fast.assignment.as_lists() == slow.assignment.as_lists()
    assert fast.objective_history == slow.objective_history
    assert fast.accepted_transitions == slow.accepted_transitions
    assert fast_acc.snapshot() == slow_acc.snapshot()
    assert fast_acc._log == slow_acc._log
    assert fast_env.ledger.message_records() == slow_env.ledger.message_records()
    assert fast_env.ledger.summary(fast_env.num_devices) == slow_env.ledger.summary(
        slow_env.num_devices
    )
    np.testing.assert_array_equal(
        fast_env.ledger.per_device_message_counts(fast_env.num_devices),
        slow_env.ledger.per_device_message_counts(slow_env.num_devices),
    )
    assert (
        fast_env.server.rng.bit_generator.state
        == slow_env.server.rng.bit_generator.state
    )


class TestSecureBalancingEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_facebook_like(self, seed):
        graph = generate_facebook_like(seed=3, num_nodes=60)
        _assert_secure_balancing_equivalent(graph, seed=seed)

    def test_small_world(self):
        graph = generate_small_world(num_nodes=40, k=4, seed=5)
        _assert_secure_balancing_equivalent(graph, seed=1)

    def test_star(self):
        _assert_secure_balancing_equivalent(generate_star(num_leaves=8, seed=2))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(2, 8))
    def test_facebook_like_wide(self, seed):
        graph = generate_facebook_like(seed=seed, num_nodes=100)
        _assert_secure_balancing_equivalent(graph, seed=seed, iterations=60)

    def test_secure_transcript_is_zero_knowledge(self):
        graph = generate_small_world(num_nodes=30, k=4, seed=9)
        _, _, accountant = _run_secure_balancer(graph, oracle=False)
        assert transcript_reveals_only_sizes(accountant)


class TestSecureConstructorEquivalence:
    def test_constructor_level_secure_equivalence(self):
        graph = generate_facebook_like(seed=3, num_nodes=60)
        config = TreeConstructorConfig(mcmc_iterations=30)
        fast_rng, slow_rng = np.random.default_rng(0), np.random.default_rng(0)
        fast = TreeConstructor(config, rng=fast_rng, secure=True).construct(
            FederatedEnvironment.from_graph(graph, seed=0)
        )
        slow_greedy, slow, slow_transcript = construct_with_oracles(
            FederatedEnvironment.from_graph(graph, seed=0), config, slow_rng, secure=True
        )
        assert fast.assignment.as_lists() == slow.assignment.as_lists()
        greedy = greedy_initialization(
            FederatedEnvironment.from_graph(graph, seed=0),
            accountant=TranscriptAccountant(),
            bit_width=config.degree_comparison_bits,
            rng=np.random.default_rng(0),
            secure=True,
        )
        assert greedy.as_lists() == slow_greedy.as_lists()
        assert fast.mcmc_result.objective_history == slow.objective_history
        assert fast.transcript.snapshot() == slow_transcript.snapshot()
        assert fast.transcript._log == slow_transcript._log
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class TestSecureTranscriptGolden:
    """Everything a secure-kernel rewrite must not move, as one digest.

    Production == oracle cannot see drift in code both sides share
    (``argmax``, ``compare_batch``); a digest recorded once (at PR 17's
    commit, before the packed-OT / batched-argmax kernel) can.
    """

    GOLDEN = "32e7bc98957556c0d44a4a9705ad24814d3402692702ce38dedf7114bf276823"

    def test_secure_construction_digest(self):
        graph = generate_facebook_like(seed=3, num_nodes=60)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        rng = np.random.default_rng(0)
        result = TreeConstructor(
            TreeConstructorConfig(mcmc_iterations=30), rng=rng, secure=True
        ).construct(environment)
        payload = json.dumps(
            {
                "selection": result.assignment.as_lists(),
                "accountant": result.transcript.snapshot(),
                "log": result.transcript._log,
                "ledger": environment.ledger.message_records(),
                "rng": rng.bit_generator.state,
            },
            sort_keys=True,
            default=int,
        )
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == self.GOLDEN


class TestAccountantCapSemantics:
    """`record_pattern` LOG_CAP boundaries and `merge` of capped accountants."""

    def _reference_log(self, pattern, count, cap):
        accountant = TranscriptAccountant()
        accountant.LOG_CAP = cap
        for _ in range(count):
            for description, bits in pattern:
                accountant.record(description, bits)
        return accountant

    @pytest.mark.parametrize("count", [4, 5, 6])  # one below / at / above cap
    def test_single_entry_pattern_around_the_cap(self, count):
        pattern = [("ot-n", 144)]
        cap = 5
        bulk = TranscriptAccountant()
        bulk.LOG_CAP = cap
        bulk.record_pattern(pattern, count)
        reference = self._reference_log(pattern, count, cap)
        assert bulk._log == reference._log
        assert bulk.snapshot() == reference.snapshot()
        assert len(bulk._log) == min(count, cap)

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_multi_entry_pattern_straddles_the_cap(self, count):
        # A 3-entry pattern against a cap of 7: repetitions 2 and 3 are cut
        # mid-pattern, so the log ends on a partial repetition exactly where
        # the looped recording would stop.
        pattern = [("ot-n", 144), ("ot-n", 144), ("and-gate", 8)]
        cap = 7
        bulk = TranscriptAccountant()
        bulk.LOG_CAP = cap
        bulk.record_pattern(pattern, count)
        reference = self._reference_log(pattern, count, cap)
        assert bulk._log == reference._log
        assert bulk.snapshot() == reference.snapshot()

    def test_record_pattern_on_an_already_full_log(self):
        accountant = TranscriptAccountant()
        accountant.LOG_CAP = 3
        accountant.record_pattern([("ot", 1)], 3)
        accountant.record_pattern([("ot-n", 2)], 5)
        assert accountant._log == ["ot:1", "ot:1", "ot:1"]
        assert accountant.messages == 8  # counters keep accumulating

    def test_merge_of_capped_accountants(self):
        first = TranscriptAccountant()
        first.LOG_CAP = 4
        first.record_pattern([("ot", 1)], 3)
        second = TranscriptAccountant()
        second.LOG_CAP = 4
        second.record_pattern([("and-gate", 2)], 4)
        second.comparisons = 2
        first.merge(second)
        # Counters add; the log absorbs the other's entries up to the cap.
        assert first.messages == 7
        assert first.bits == 3 * 1 + 4 * 2
        assert first.comparisons == 2
        assert first._log == ["ot:1", "ot:1", "ot:1", "and-gate:2"]

    def test_merge_into_a_full_log_keeps_it_capped(self):
        first = TranscriptAccountant()
        first.LOG_CAP = 2
        first.record_pattern([("ot", 1)], 2)
        second = TranscriptAccountant()
        second.record("and-gate", 2)
        first.merge(second)
        assert first._log == ["ot:1", "ot:1"]
        assert first.messages == 3


class TestSecureModeRNGContract:
    def test_secure_balancer_consumes_stream_like_reference(self):
        """Transition sampling is the only consumer; kernels draw nothing."""
        graph = generate_small_world(num_nodes=30, k=4, seed=9)
        states = {}
        for oracle in (False, True):
            environment = FederatedEnvironment.from_graph(graph, seed=0)
            initial = greedy_initialization(environment, rng=np.random.default_rng(0))
            rng = np.random.default_rng(7)
            balancer = MCMCBalancer(environment, iterations=20, rng=rng, secure=True)
            if oracle:
                mcmc_run_reference(balancer, initial)
            else:
                balancer.run(initial)
            states[oracle] = rng.bit_generator.state
        assert states[False] == states[True]

    def test_clone_generator_is_independent(self):
        rng = np.random.default_rng(0)
        twin = clone_generator(rng)
        assert rng.integers(1000) == twin.integers(1000)
        rng.integers(1000)
        assert rng.bit_generator.state != twin.bit_generator.state
