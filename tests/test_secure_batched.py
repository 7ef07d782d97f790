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
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.equivalence import assert_equivalent_runs, balanced_run
from helpers.graphs import generate_small_world, generate_star
from helpers.oracles import (
    construct_with_oracles,
    full_assignment,
    greedy_initialization_reference,
    mcmc_run_reference,
    secure_argmax_reference,
    secure_compare_reference,
    transcript_reveals_only_sizes,
)
from helpers.rng_contract import assert_stream_contract, clone_generator
from helpers.tree_cases import csr_from_lists, graph_cases

from repro import obs
from repro.core import (
    MCMCBalancer,
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
)
from repro.core.mcmc import _IncrementalBalancingKernel
from repro.crypto import SecureComparator, TranscriptAccountant
from repro.crypto.oblivious_transfer import transfer_packed_table_batch
from repro.crypto.secure_compare import argmax_from_outcomes, argmax_pairs, operand_array
from repro.federation import FederatedEnvironment
from repro.graph import Graph, generate_facebook_like

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


def _executed_argmax(comparator, values) -> int:
    """Secure Alg. 3's part 2 on its own: the argmax chain's pairs as one
    executed batch, the winner re-derived from their outcomes."""
    values = operand_array(values, "values", comparator.bit_width)
    outcomes = comparator.compare_batch(*argmax_pairs(values), execute=True).left_ge_right
    return argmax_from_outcomes(values, outcomes)


class TestBatchedArgmax:
    """The argmax chain (one verified executed batch) vs the scalar scan it replaced."""

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
                lambda _: _executed_argmax(comparator, values), np.random.default_rng(1), 0
            )
            assert got == expected == values.index(max(values)), label
            assert batch_acc.snapshot() == loop_acc.snapshot(), label
            assert batch_acc._log == loop_acc._log, label

    def test_rejects_what_the_scan_rejected(self):
        comparator = SecureComparator(bit_width=8)
        with pytest.raises(ValueError):
            _executed_argmax(comparator, [])
        with pytest.raises(ValueError):
            _executed_argmax(comparator, [1, 256])
        with pytest.raises(ValueError):
            _executed_argmax(comparator, [1, -1])


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
            _executed_argmax(comparator, [1, 5, 3])

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


def _assert_secure_balancing_equivalent(graph, seed=0, iterations=25):
    options = dict(seed=seed, iterations=iterations, secure=True)
    assert_equivalent_runs(balanced_run(graph, **options), balanced_run(graph, oracle=True, **options))


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
        accountant = balanced_run(graph, iterations=25, secure=True).accountant
        assert transcript_reveals_only_sizes(accountant)


def _ring_kernel(size: int = 12):
    """A secure kernel over a ring where every device keeps both neighbours
    (every workload 2, every device a candidate)."""
    indptr, indices = csr_from_lists([[(v - 1) % size, (v + 1) % size] for v in range(size)])
    environment = FederatedEnvironment.from_partition((indptr, indices, np.zeros((size, 1))), seed=0)
    comparator = SecureComparator(bit_width=24, accountant=TranscriptAccountant())
    return _IncrementalBalancingKernel(
        environment, full_assignment(environment), comparator.accountant, comparator
    )


def _position(kernel, owner: int, partner: int) -> int:
    """The CSR position of ``partner`` in ``owner``'s row."""
    indptr, indices = kernel.environment.adjacency_csr()
    row = indices[indptr[owner]:indptr[owner + 1]]
    return int(indptr[owner] + np.flatnonzero(row == partner)[0])


def _traced_call(kernel, round_index: int):
    """One Alg. 3 call: ``(comparisons executed, outcomes reused)``."""
    before = kernel.accountant.comparisons
    with obs.tracing() as tracer:
        kernel.find_max_workload_device(round_index)
    reused = tracer.metrics.snapshot()["counters"].get("crypto.comparisons_reused", 0)
    return kernel.accountant.comparisons - before, reused


def _cache_run(graph, *, oracle: bool, seed: int, iterations: int):
    """A secure balanced run, the outcomes it reused, and per production
    Alg. 3 call its scanned comparisons and its candidate count."""
    calls = []
    scan = _IncrementalBalancingKernel._scan

    def recording(kernel):
        memo = scan(kernel)
        calls.append((int(memo[0].sum()), memo[3]))
        return memo

    with pytest.MonkeyPatch.context() as patch, obs.tracing() as tracer:
        patch.setattr(_IncrementalBalancingKernel, "_scan", recording)
        run = balanced_run(graph, oracle=oracle, seed=seed, iterations=iterations, secure=True)
    reused = tracer.metrics.snapshot()["counters"].get("crypto.comparisons_reused", 0)
    return run, reused, calls


def _assert_cache_matches_the_oracle(case, seed: int, iterations: int):
    n, edges = case
    graph = Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))
    fast, reused, calls = _cache_run(graph, oracle=False, seed=seed, iterations=iterations)
    slow, slow_reused, _ = _cache_run(graph, oracle=True, seed=seed, iterations=iterations)
    assert_equivalent_runs(fast, slow)
    assert reused == slow_reused
    # The balancer's comparisons are Alg. 3's executed prefix comparisons,
    # each call's argmax chain (c - 1) and one objective difference per
    # iteration that proposed (two calls; a skipped iteration makes one).
    argmax = sum(candidates - 1 for _, candidates in calls)
    differences = len(calls) - iterations
    executed = fast.accountant.comparisons - argmax - differences
    assert executed + reused == sum(scanned for scanned, _ in calls)


class TestOutcomeCache:
    """Secure Alg. 3 stores each executed outcome at its CSR position and
    executes again only what a transfer, proposed, accepted or reverted,
    made stale."""

    def test_a_call_executes_only_the_stale_positions_in_its_prefixes(self):
        kernel = _ring_kernel()
        assert _traced_call(kernel, 0) == (24 + 11, 0)  # cold: every row, then the argmax
        # 0 hands the edge to 1, which kept it already: workload 0 -> 1.  Rows
        # 0, 1, 2 and 11 go stale; their prefixes are (0: 1), (1: 0, 2),
        # (2: 1, 3), (11: 0, 10), and 2 -> 3 and 11 -> 10 are still stored.
        # Eleven candidates (all but 0), ten argmax pairs.
        kernel.apply(0, [1])
        assert _traced_call(kernel, 0) == (5 + 10, 23 - 5)
        # Back to the tie: the revert makes the moved rows and the positions
        # pointing into them stale again, even though no call ran between.
        kernel.revert()
        assert _traced_call(kernel, 1) == (6 + 11, 24 - 6)
        assert _traced_call(kernel, 2) == (0 + 11, 24)  # nothing moved: all reused

    def test_what_the_next_call_executes_does_not_depend_on_the_decision(self):
        runs = {}
        for decision in ("accept", "reject"):
            kernel = _ring_kernel()
            kernel.find_max_workload_device(0)
            kernel.apply(0, [1])
            kernel.find_max_workload_device(0)  # Alg. 2's line 6, under the proposal
            if decision == "accept":
                kernel.commit(int(kernel.workload.max()))
            else:
                kernel.revert()
            forgotten = ~kernel._stored
            counts = _traced_call(kernel, 1)
            runs[decision] = forgotten, forgotten & kernel._stored, counts
        (forgotten, executed, counts), (forgotten_too, executed_too, counts_too) = runs.values()
        # Both decisions forget the same outcomes, so a device that did not
        # move runs again exactly its comparisons with a moved device in its
        # prefix (2 -> 1 and 11 -> 0) whether the transfer stayed or not.
        assert np.array_equal(forgotten, forgotten_too)
        unmoved = np.repeat(np.arange(12), 2) >= 2
        assert np.array_equal(executed & unmoved, executed_too & unmoved)
        assert set(np.flatnonzero(executed & unmoved)) == {
            _position(kernel, 2, 1), _position(kernel, 11, 0)
        }
        # Only the source's own prefix differs: after the accept, 0 (workload
        # 1) stops at 1 and is no candidate; after the reject it ties again.
        assert counts == (5 + 10, 23 - 5)
        assert counts_too == (6 + 11, 24 - 6)

    def test_a_corrupted_stored_outcome_trips_the_scan_check(self):
        kernel = _ring_kernel()
        kernel.find_max_workload_device(0)
        kernel.apply(0, [1])
        # 11 compares 10 after 0; neither moved, so that bit is reused.
        position = _position(kernel, 11, 10)
        assert kernel._stored[position]
        kernel._outcomes[position] = False
        with pytest.raises(RuntimeError, match="disagrees with the prefix scan"):
            kernel.find_max_workload_device(0)

    def test_a_corrupted_invalidated_outcome_is_executed_again(self):
        kernel = _ring_kernel()
        kernel.find_max_workload_device(0)
        kernel.apply(0, [1])
        # 11 -> 0 points into a moved row: the transfer invalidated it.
        position = _position(kernel, 11, 0)
        assert not kernel._stored[position]
        kernel._outcomes[position] = False
        kernel.find_max_workload_device(0)
        assert kernel._stored[position] and kernel._outcomes[position]

    def test_clear_mode_keeps_no_cache(self):
        environment = FederatedEnvironment.from_graph(generate_star(num_leaves=8, seed=2), seed=0)
        kernel = _IncrementalBalancingKernel(environment, full_assignment(environment))
        kernel.find_max_workload_device(0)
        kernel.apply(0, [int(kernel.assignment.kept_neighbors(0)[0])])
        kernel.revert()
        assert not {"_outcomes", "_stored", "_stale_rows"} & set(vars(kernel))

    def test_secure_and_clear_runs_differ_only_in_the_accountant(self):
        graph = generate_facebook_like(seed=3, num_nodes=60)
        clear = balanced_run(graph, iterations=25)
        secure = balanced_run(graph, iterations=25, secure=True)
        assert clear.selection.as_lists() == secure.selection.as_lists()
        assert clear.result.objective_history == secure.result.objective_history
        # The ledger's alg3-comparisons rows keep the analytic count.
        assert clear.environment.ledger.message_records() == secure.environment.ledger.message_records()
        assert 0 < secure.accountant.comparisons < clear.accountant.comparisons

    @settings(max_examples=20, deadline=None)
    @given(case=graph_cases(16), seed=st.integers(0, 2**16))
    def test_generated_federations_match_the_cached_oracle(self, case, seed):
        _assert_cache_matches_the_oracle(case, seed, iterations=8)

    @pytest.mark.slow
    @settings(max_examples=150, deadline=None)
    @given(case=graph_cases(40), seed=st.integers(0, 2**16))
    def test_generated_federations_match_the_cached_oracle_wide(self, case, seed):
        _assert_cache_matches_the_oracle(case, seed, iterations=20)

    def test_the_whole_log_of_a_300_device_construction(self, monkeypatch):
        # At 300 devices Alg. 1 alone fills the default 10 000-entry log, so
        # the log is compared whole: its secure-subtraction entries sit
        # between the Alg. 3 calls and witness each call's executed count.
        monkeypatch.setattr(TranscriptAccountant, "LOG_CAP", 10**7)
        graph = generate_facebook_like(seed=3, num_nodes=300)
        config = TreeConstructorConfig(mcmc_iterations=60)
        fast_rng, slow_rng = np.random.default_rng(0), np.random.default_rng(0)
        fast_environment = FederatedEnvironment.from_graph(graph, seed=0)
        fast = TreeConstructor(config, rng=fast_rng, secure=True).construct(fast_environment)
        slow_environment = FederatedEnvironment.from_graph(graph, seed=0)
        _, slow, slow_transcript = construct_with_oracles(
            slow_environment, config, slow_rng, secure=True
        )
        log = fast.transcript._log
        assert 10_000 < len(log) < TranscriptAccountant.LOG_CAP
        assert log.count("secure-subtraction:48") == len(fast.mcmc_result.objective_history) - 1
        assert log == slow_transcript._log
        assert fast.transcript.snapshot() == slow_transcript.snapshot()
        assert fast.assignment.as_lists() == slow.assignment.as_lists()
        assert fast.mcmc_result.objective_history == slow.objective_history
        assert fast.mcmc_result.accepted_transitions == slow.accepted_transitions
        # The constructor also charges tree-building compute, which the
        # oracles do not: the messages are compared, not the summary.
        assert fast_environment.ledger.message_records() == slow_environment.ledger.message_records()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


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
    (``argmax_pairs``, ``compare_batch``); a digest recorded before the
    packed-OT / batched-argmax kernel can.  It was re-recorded once, when
    secure Alg. 3 began reusing the outcomes no transfer made stale (and
    invalidating a transfer's outcomes after either decision): that moves
    the accountant's counters and capped log on purpose, while the
    selection, ledger and RNG parts of the payload kept their values.
    """

    GOLDEN = "3da07ed0ce6ea2f9635992229016723d7799ba59929c327e0b6f71cb506e3c75"

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
