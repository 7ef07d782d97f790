"""Equivalence tests pinning the incremental MCMC kernel to the reference loop.

``MCMCBalancer.run`` replaces the from-scratch Alg. 2/3 evaluation with
in-place transfers and one memoised prefix scan that a transfer rescans
only where it touched; these tests run the from-scratch oracle
``helpers.oracles.mcmc_run_reference`` beside it
(``helpers.equivalence.balanced_run``) and assert that the difference is
purely one of implementation (``assert_equivalent_runs``): identical
assignments, objective history, acceptance count, accountant counters and
capped log, ledger transcript (canonical form) and RNG stream consumption,
in both clear and secure modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.equivalence import assert_equivalent_runs, balanced_run
from helpers.graphs import generate_small_world, generate_star
from helpers.oracles import (
    SelectionOracle,
    assignment_from_lists,
    construct_with_oracles,
    full_assignment,
)
from helpers.tree_cases import csr_from_lists, graph_cases

from repro.core import (
    Assignment,
    MCMCBalancer,
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
)
from repro.core.mcmc import _IncrementalBalancingKernel
from repro.crypto import SecureComparator, TranscriptAccountant, comparison_cost
from repro.federation import FederatedEnvironment
from repro.graph import Graph, generate_facebook_like


def _assert_equivalent(graph, *, seed: int = 0, iterations: int = 200,
                       secure: bool = False, bit_width: int = 24):
    options = dict(seed=seed, iterations=iterations, secure=secure, bit_width=bit_width)
    assert_equivalent_runs(balanced_run(graph, **options), balanced_run(graph, oracle=True, **options))


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_facebook_like_clear(self, seed):
        graph = generate_facebook_like(seed=3, num_nodes=120)
        _assert_equivalent(graph, seed=seed)

    def test_small_world_clear(self):
        graph = generate_small_world(num_nodes=60, k=4, seed=5)
        _assert_equivalent(graph, seed=1)

    def test_star_clear(self):
        # Degenerate degree skew: the hub sheds everything early.
        _assert_equivalent(generate_star(num_leaves=8, seed=2), seed=0)

    def test_edgeless_graph_clear(self):
        # Every device has an empty selection, so every iteration takes the
        # skip branch — which must not advance the round counter (the
        # reference loop `continue`s past next_round() too).
        from repro.graph import Graph

        graph = Graph(
            num_nodes=5,
            edges=np.zeros((0, 2), dtype=np.int64),
            features=np.random.default_rng(0).random((5, 4)),
        )
        _assert_equivalent(graph, seed=0, iterations=10)

    def test_secure_mode(self):
        # Secure balancing routes through the incremental kernel's batched
        # protocol path; it must stay indistinguishable from the secure
        # reference loop (deeper sweeps live in tests/test_secure_batched.py).
        graph = generate_small_world(num_nodes=30, k=4, seed=9)
        _assert_equivalent(graph, seed=0, iterations=15, secure=True)

    def test_constructor_level_equivalence(self, social_graph):
        config = TreeConstructorConfig(mcmc_iterations=60)
        fast = TreeConstructor(config, rng=np.random.default_rng(0)).construct(
            FederatedEnvironment.from_graph(social_graph, seed=0)
        )
        _, slow, slow_transcript = construct_with_oracles(
            FederatedEnvironment.from_graph(social_graph, seed=0),
            config,
            np.random.default_rng(0),
        )
        assert fast.assignment.as_lists() == slow.assignment.as_lists()
        assert fast.mcmc_result.objective_history == slow.objective_history
        assert fast.transcript.bits == slow_transcript.bits

    def test_secure_incremental_kernel_is_allowed(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        initial = greedy_initialization(environment, rng=np.random.default_rng(0))
        balancer = MCMCBalancer(
            environment, iterations=3, secure=True, rng=np.random.default_rng(1),
        )
        result = balancer.run(initial)
        assert result.iterations == 3
        # The batched secure path executed real protocol runs.
        assert balancer.accountant.comparisons > 0
        assert balancer.accountant._log


def _double_star(leaves: int):
    """Two adjacent hubs with ``leaves`` leaves each: every leaf's only
    neighbour is its hub, so every leaf's scan holds its hub."""
    edges = [(0, 1)]
    edges += [(0, 2 + leaf) for leaf in range(leaves)]
    edges += [(1, 2 + leaves + leaf) for leaf in range(leaves)]
    num_nodes = 2 + 2 * leaves
    return Graph(num_nodes=num_nodes, edges=np.asarray(edges), features=np.zeros((num_nodes, 1)))


def _kernel(environment, assignment, secure: bool):
    """A kernel over ``assignment``; in secure mode it executes Alg. 3."""
    accountant = TranscriptAccountant()
    comparator = SecureComparator(bit_width=24, accountant=accountant) if secure else None
    return _IncrementalBalancingKernel(environment, assignment, accountant, comparator)


def _looped_prefixes(kernel, devices):
    """Each device's executed-prefix length and candidacy as the per-device
    loop scans its row: up to and including the first strictly greater
    neighbour."""
    indptr, indices = kernel.environment.adjacency_csr()
    workload = kernel.workload.tolist()
    executed, candidate = [], []
    for device in devices:
        row = indices[indptr[device]:indptr[device + 1]].tolist()
        stop = next((i for i, v in enumerate(row) if workload[v] > workload[device]), None)
        executed.append(len(row) if stop is None else stop + 1)
        candidate.append(stop is None)
    return executed, candidate


def _looped_scan(kernel):
    """This state's ``(executed, candidate, winners, num_candidates)`` from
    scratch, as the kernel memoises them."""
    executed, candidate = _looped_prefixes(kernel, range(kernel.num_devices))
    workload = kernel.workload.tolist()
    candidates = [device for device, flag in enumerate(candidate) if flag]
    top = max((workload[device] for device in candidates), default=None)
    winners = [device for device in candidates if workload[device] == top] or [0]
    return executed, candidate, winners, max(len(candidates), 1)


def _assert_memo_is_from_scratch(kernel):
    """What the kernel memoised for its current version, if anything, is what
    the per-device loop scans from scratch."""
    memo = kernel._memo.get(kernel._version)
    if memo is not None:
        executed, candidate, winners, num_candidates = memo
        got = (executed.tolist(), candidate.tolist(), winners, num_candidates)
        assert got == _looped_scan(kernel)
    np.testing.assert_array_equal(
        kernel.workload, SelectionOracle.of(kernel.assignment).workload_array()
    )


def _counting_scans(kernel, monkeypatch):
    """Record the rows of every ``_scan_prefixes`` call the kernel makes."""
    scanned = []
    scan = kernel._scan_prefixes
    monkeypatch.setattr(
        kernel, "_scan_prefixes", lambda rows: scanned.append(list(rows)) or scan(rows)
    )
    return scanned


class TestPrefixScan:
    """Alg. 3's candidates come from one segmented prefix scan over CSR rows;
    the per-device loop is its oracle."""

    @pytest.mark.parametrize("secure", [False, True], ids=["clear", "secure"])
    def test_double_star_run_matches_the_reference_loop(self, secure):
        # Every move of a hub rescans all of its leaves.
        for seed in (0, 1):
            _assert_equivalent(
                _double_star(12), seed=seed, iterations=30 if secure else 80, secure=secure
            )

    @pytest.mark.parametrize(
        "graph, select",
        [
            (_double_star(6), "full"),
            (_double_star(6), "none"),
            (generate_facebook_like(seed=5, num_nodes=90), "full"),
            (generate_facebook_like(seed=5, num_nodes=90), "none"),
        ],
        ids=["double-star", "double-star-all-zero", "social", "social-all-zero"],
    )
    def test_scan_matches_the_per_device_loop(self, graph, select):
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        assignment = full_assignment(environment)
        if select == "none":
            assignment = Assignment(
                environment.indptr, environment.indices, np.zeros_like(assignment.kept)
            )
        kernel = _IncrementalBalancingKernel(environment, assignment)
        vertices = list(range(graph.num_nodes)) + [1, 1, 0]  # repeats allowed
        executed, candidate = kernel._scan_prefixes(vertices)
        assert (executed.tolist(), candidate.tolist()) == _looped_prefixes(kernel, vertices)
        assert executed.dtype == np.int64 and candidate.dtype == bool

    def test_an_empty_row_is_a_candidate_that_executes_nothing(self):
        # Device 1 lists no neighbour although device 0 lists it, device 3 is
        # isolated outright: empty CSR rows at the front, middle and end.
        indptr, indices = csr_from_lists([[1, 2], [], [0], []])
        features = np.random.default_rng(0).random((4, 2))
        environment = FederatedEnvironment.from_partition((indptr, indices, features), seed=0)
        kernel = _IncrementalBalancingKernel(
            environment, assignment_from_lists(environment, {0: [1, 2], 1: [], 2: [0], 3: []})
        )
        for vertices in ([1], [3, 1], [1, 0, 3, 2, 3], [0, 2], []):
            executed, candidate = kernel._scan_prefixes(vertices)
            assert (executed.tolist(), candidate.tolist()) == _looped_prefixes(kernel, vertices)
        assert kernel._scan_prefixes([1, 3])[0].tolist() == [0, 0]

    @pytest.mark.parametrize("secure", [False, True], ids=["clear", "secure"])
    def test_scan_equals_from_scratch_after_apply_and_revert(self, secure):
        graph = _double_star(5)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        kernel = _kernel(environment, full_assignment(environment), secure)
        kernel.find_max_workload_device(0)
        kernel.apply(0, [2, 3, 1])  # hub 0 sheds two leaves and the other hub
        kernel.find_max_workload_device(0)
        _assert_memo_is_from_scratch(kernel)
        kernel.revert()
        _assert_memo_is_from_scratch(kernel)
        kernel.apply(1, [0])
        kernel.find_max_workload_device(1)
        kernel.commit(int(kernel.workload.max()))
        kernel.apply(0, [4])
        kernel.find_max_workload_device(2)
        _assert_memo_is_from_scratch(kernel)

    @pytest.mark.parametrize("secure", [False, True], ids=["clear", "secure"])
    def test_a_hub_transfer_is_one_scan_over_the_hub_and_its_holders(
        self, secure, monkeypatch
    ):
        # All 2 000 leaves hold the hub in their prefix (it is their only
        # neighbour), and the hub holds the moved leaf: the transfer rescans
        # those rows in one segmented call, not one call per row.
        graph = generate_star(num_leaves=2000, seed=0)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        kernel = _kernel(environment, full_assignment(environment), secure)
        hub = int(np.argmax(kernel.workload))
        leaf = int(kernel.assignment.kept_neighbors(hub)[0])
        kernel.find_max_workload_device(0)
        scanned = _counting_scans(kernel, monkeypatch)
        kernel.apply(hub, [leaf])
        kernel.find_max_workload_device(0)
        assert len(scanned) == 1 and set(scanned[0]) == set(range(2001))
        # The moved vertices, every leaf holding the hub, the hub holding the leaf.
        assert len(scanned[0]) == 2 + 2000 + 1
        _assert_memo_is_from_scratch(kernel)


class TestTransferDeltas:
    def test_apply_then_undo_restores_everything(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        assignment = full_assignment(environment)
        baseline = assignment.as_lists()
        vector = assignment.workload_array()
        baseline_vector = vector.copy()
        source = int(np.argmax(baseline_vector))
        targets = assignment.kept_neighbors(source)[:3].tolist()

        record = assignment.apply_transfer(source, targets)
        assert vector[source] == baseline_vector[source] - len(targets)
        np.testing.assert_array_equal(vector, SelectionOracle.of(assignment).workload_array())
        assignment.undo_transfer(source, record)
        assert assignment.as_lists() == baseline
        np.testing.assert_array_equal(vector, baseline_vector)

    def test_invalid_target_rejected(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        assignment = full_assignment(environment)
        not_selected = next(
            v for v in range(social_graph.num_nodes)
            if v not in assignment.kept_neighbors(0) and v != 0
        )
        with pytest.raises(ValueError):
            assignment.apply_transfer(0, [not_selected])

    def test_workloads_are_maintained_not_rebuilt(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        assignment = full_assignment(environment)
        vector = assignment.workload_array()
        assert np.shares_memory(vector, assignment.workload_array())
        copied = assignment.copy()
        assert not np.shares_memory(copied.workload_array(), vector)
        assert not np.shares_memory(copied.kept, assignment.kept)


class TestKernelTranscriptBlocks:
    def test_kernel_transcript_is_columnar(self):
        graph = generate_facebook_like(seed=3, num_nodes=80)
        environment = balanced_run(graph, iterations=50).environment
        table = environment.ledger.messages
        descriptions = {description for _kind, description in table.labels}
        assert {"candidate-announcement", "alg3-comparisons"} <= descriptions
        # One block per flushed description, plus one candidate-announcement
        # block per Alg. 3 call (two per iteration) — not one row per
        # protocol step.
        assert len(table.column("round")) <= len(table.labels) + 2 * 50
        assert len(table) > 10 * len(table.column("round"))

    def test_summary_accounts_for_bulk_messages(self):
        graph = generate_facebook_like(seed=3, num_nodes=80)
        environment = balanced_run(graph, iterations=50).environment
        ledger = environment.ledger
        summary = ledger.summary()
        records = ledger.message_records()
        assert summary["total_messages"] == len(records) == len(ledger.messages)
        assert summary["total_bytes"] == sum(record[4] for record in records)
        by_kind = sum(value for key, value in summary.items() if key.startswith("messages_"))
        assert by_kind == len(records)


def _walk_case(name):
    """``(environment, assignment)`` of one memo-walk case."""
    if name == "star":
        graph = generate_star(num_leaves=12, seed=0)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        return environment, full_assignment(environment)
    if name == "social":
        graph = generate_facebook_like(seed=4, num_nodes=70)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        return environment, greedy_initialization(environment, rng=np.random.default_rng(0))
    if name == "isolated":
        # Isolated devices at the front, middle and end of the CSR.
        lists = [[], [2, 3], [1, 3, 5], [1, 2], [], [2, 6], [5], []]
    else:
        # A ring of twelve: every device holds two neighbours, all workloads tie.
        lists = [[(v - 1) % 12, (v + 1) % 12] for v in range(12)]
    indptr, indices = csr_from_lists(lists)
    features = np.zeros((len(lists), 1))
    environment = FederatedEnvironment.from_partition((indptr, indices, features), seed=0)
    return environment, full_assignment(environment)


@pytest.mark.parametrize("secure", [False, True], ids=["clear", "secure"])
class TestPrefixScanMemo:
    """Both modes keep each device's executed-prefix length per kernel version
    and, after a transfer, rescan only the rows it touched."""

    @pytest.mark.parametrize("case", ["star", "isolated", "ring", "social"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_prefix_lengths_equal_a_from_scratch_scan_along_a_walk(self, case, seed, secure):
        environment, assignment = _walk_case(case)
        kernel = _kernel(environment, assignment, secure)
        rng = np.random.default_rng(seed)
        for step in range(40):
            # Skipping some calls leaves versions no call evaluated: the
            # next call then scans every row.
            if rng.random() < 0.8:
                kernel.find_max_workload_device(step)
                assert kernel._version in kernel._memo
                _assert_memo_is_from_scratch(kernel)
            holders = [v for v, chosen in kernel.assignment.as_lists().items() if chosen]
            if not holders:
                break
            source = int(rng.choice(holders))
            chosen = kernel.assignment.kept_neighbors(source).tolist()
            size = int(rng.integers(1, len(chosen) + 1))
            kernel.apply(source, [int(v) for v in rng.choice(chosen, size, replace=False)])
            kernel.find_max_workload_device(step)
            _assert_memo_is_from_scratch(kernel)
            if rng.random() < 0.5:
                kernel.commit(int(kernel.workload.max()))
            else:
                kernel.revert()
            _assert_memo_is_from_scratch(kernel)

    def test_a_transfer_rescans_only_the_touched_rows(self, secure, monkeypatch):
        # A ring of 2 000 where every device keeps both neighbours, except
        # that 499 keeps none and 501 keeps only 502.  Moving 500's edge to
        # 501 changes those two workloads: the call after it rescans their
        # rows and 502's, whose prefix holds 501 — not 499's, whose scan
        # stops at 498 before it reaches 500, and none of the other 1 996.
        lists = [[(v - 1) % 2000, (v + 1) % 2000] for v in range(2000)]
        selected = {v: list(row) for v, row in enumerate(lists)}
        selected[499], selected[501] = [], [502]
        indptr, indices = csr_from_lists(lists)
        environment = FederatedEnvironment.from_partition(
            (indptr, indices, np.zeros((2000, 1))), seed=0
        )
        kernel = _kernel(environment, assignment_from_lists(environment, selected), secure)
        scanned = _counting_scans(kernel, monkeypatch)
        kernel.find_max_workload_device(0)
        assert [len(rows) for rows in scanned] == [2000]  # the cold call
        scanned.clear()
        kernel.apply(500, [501])
        kernel.find_max_workload_device(0)
        assert len(scanned) == 1 and sorted(set(scanned[0])) == [500, 501, 502]
        assert len(scanned[0]) == 5  # rows may repeat: 500 and 501 hold each other
        _assert_memo_is_from_scratch(kernel)
        # A revert returns to a memoised version: nothing is rescanned.
        scanned.clear()
        kernel.revert()
        kernel.find_max_workload_device(1)
        assert scanned == []
        _assert_memo_is_from_scratch(kernel)

    def test_an_asymmetric_csr_fails_at_the_first_transfer(self, secure):
        # Device 0 lists 1, which does not list 0: the kernel builds and
        # answers Alg. 3, and the first transfer finds no reverse position.
        indptr, indices = csr_from_lists([[1, 2], [], [0], []])
        environment = FederatedEnvironment.from_partition((indptr, indices, np.zeros((4, 1))), seed=0)
        assignment = assignment_from_lists(environment, {0: [1, 2], 1: [], 2: [0], 3: []})
        kernel = _kernel(environment, assignment.copy(), secure)
        assert kernel.find_max_workload_device(0) == 0
        with pytest.raises(ValueError, match="symmetric"):
            kernel.apply(0, [1])
        balancer = MCMCBalancer(
            environment, iterations=1, secure=secure, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="symmetric"):
            balancer.run(assignment)


class TestGeneratedFederations:
    """Kernel == reference loop on generated graphs: isolated vertices,
    duplicate and reversed edges, the empty graph."""

    @pytest.mark.parametrize("secure", [False, True], ids=["clear", "secure"])
    @settings(max_examples=20, deadline=None)
    @given(case=graph_cases(16), seed=st.integers(0, 2**16))
    def test_kernel_equals_the_reference_loop(self, secure, case, seed):
        n, edges = case
        graph = Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))
        _assert_equivalent(graph, seed=seed, iterations=8, secure=secure)


class TestAnalyticChargeWidth:
    """Clear mode charges Alg. 3's analytic comparisons at the balancer's
    width, as it does the objective difference."""

    @pytest.mark.parametrize("bit_width", [8, 24, 32])
    def test_every_clear_comparison_costs_the_balancer_width(self, bit_width):
        graph = generate_facebook_like(seed=3, num_nodes=80)
        accountant = balanced_run(graph, iterations=5, bit_width=bit_width).accountant
        cost = comparison_cost(bit_width)
        assert accountant.comparisons > 0
        assert accountant.bits == accountant.comparisons * cost.bits
        assert accountant.ot_invocations == accountant.comparisons * cost.ot_invocations
        assert accountant.messages == accountant.comparisons * cost.messages

    def test_kernel_equals_the_reference_loop_at_32_bits(self):
        graph = generate_facebook_like(seed=3, num_nodes=80)
        _assert_equivalent(graph, iterations=40, bit_width=32)


class TestTinyFederations:
    """0, 1 and 2 devices construct in clear and secure mode as the reference
    loops do (a federation without devices selects nothing)."""

    @pytest.mark.parametrize(
        "lists", [[], [[]], [[], []], [[1], [0]]], ids=["none", "one", "two-isolated", "two-linked"]
    )
    @pytest.mark.parametrize("secure", [False, True], ids=["clear", "secure"])
    @pytest.mark.parametrize("use_tree_trimming", [True, False], ids=["trimmed", "untrimmed"])
    def test_construction_matches_the_reference_loops(self, lists, secure, use_tree_trimming):
        config = TreeConstructorConfig(mcmc_iterations=6, use_tree_trimming=use_tree_trimming)
        indptr, indices = csr_from_lists(lists)
        features = np.zeros((len(lists), 2))

        def environment():
            return FederatedEnvironment.from_partition((indptr, indices, features), seed=0)

        fast_env, slow_env = environment(), environment()
        fast_rng, slow_rng = np.random.default_rng(0), np.random.default_rng(0)
        fast = TreeConstructor(config, rng=fast_rng, secure=secure).construct(fast_env)
        if not use_tree_trimming:
            # Every device keeps every neighbour, and nothing is compared.
            assert fast.assignment.as_lists() == SelectionOracle.full(slow_env).as_lists()
            assert fast.mcmc_result is None and fast.transcript.comparisons == 0
            assert fast_env.workload_array().tolist() == [len(row) for row in lists]
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
            return
        _, slow, slow_transcript = construct_with_oracles(slow_env, config, slow_rng, secure=secure)
        assert fast.assignment.as_lists() == slow.assignment.as_lists()
        assert fast.mcmc_result.objective_history == slow.objective_history
        assert fast.transcript.snapshot() == slow_transcript.snapshot()
        assert fast.transcript._log == slow_transcript._log
        assert fast_env.ledger.message_records() == slow_env.ledger.message_records()
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        if not lists:
            assert fast.assignment.as_lists() == {} and fast.total_tree_nodes() == 0


class TestOneAlg3Transcript:
    """Alg. 3 has one traffic model: clear and secure construction record the
    same per-device announcements, so their ledgers are equal row for row."""

    @staticmethod
    def _construct(graph, secure: bool, seed: int, iterations: int):
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        rng = np.random.default_rng(seed)
        result = TreeConstructor(
            TreeConstructorConfig(mcmc_iterations=iterations), rng=rng, secure=secure
        ).construct(environment)
        return result, environment, rng

    def _assert_one_transcript(self, graph, seed: int, iterations: int):
        clear, clear_env, clear_rng = self._construct(graph, False, seed, iterations)
        secure, secure_env, secure_rng = self._construct(graph, True, seed, iterations)
        assert clear.assignment.as_lists() == secure.assignment.as_lists()
        assert clear_env.ledger.message_records() == secure_env.ledger.message_records()
        assert clear_env.ledger.summary() == secure_env.ledger.summary()
        assert clear_rng.bit_generator.state == secure_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_facebook_like(self, seed):
        self._assert_one_transcript(
            generate_facebook_like(seed=seed, num_nodes=60), seed, iterations=40
        )

    @settings(max_examples=25, deadline=2000)
    @given(graph_cases(16), st.integers(0, 2**16))
    def test_generated_federations(self, case, seed):
        n, edges = case
        graph = Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))
        self._assert_one_transcript(graph, seed, iterations=8)
