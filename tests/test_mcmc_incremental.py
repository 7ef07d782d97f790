"""Equivalence tests pinning the incremental MCMC kernel to the reference loop.

``MCMCBalancer.run`` replaces the from-scratch Alg. 2/3 evaluation with
array-backed delta updates; these tests call the from-scratch oracle
``helpers.oracles.mcmc_run_reference`` directly and assert that the
difference is purely one of implementation: identical
assignments, objective history, acceptance count, secure-comparison
accounting, ledger transcript (canonical form) and RNG stream consumption,
in both clear and secure modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.oracles import (
    SelectionOracle,
    assignment_from_lists,
    construct_with_oracles,
    full_assignment,
    mcmc_run_reference,
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
from repro.crypto import SecureComparator
from repro.federation import FederatedEnvironment
from repro.graph import (
    Graph,
    generate_facebook_like,
    generate_small_world,
    generate_star,
)


def _balanced(graph, *, oracle: bool = False, seed: int = 0,
              iterations: int = 200, secure: bool = False):
    environment = FederatedEnvironment.from_graph(graph, seed=0)
    initial = greedy_initialization(environment, rng=np.random.default_rng(seed))
    balancer = MCMCBalancer(
        environment,
        iterations=iterations,
        rng=np.random.default_rng(seed + 7),
        secure=secure,
    )
    result = mcmc_run_reference(balancer, initial) if oracle else balancer.run(initial)
    return result, environment, balancer.accountant


def _assert_equivalent(graph, *, seed: int = 0, iterations: int = 200,
                       secure: bool = False):
    fast, fast_env, fast_acc = _balanced(
        graph, seed=seed, iterations=iterations, secure=secure
    )
    slow, slow_env, slow_acc = _balanced(
        graph, oracle=True, seed=seed, iterations=iterations, secure=secure
    )
    assert fast.assignment.as_lists() == slow.assignment.as_lists()
    assert fast.objective_history == slow.objective_history
    assert fast.accepted_transitions == slow.accepted_transitions
    assert fast.iterations == slow.iterations
    # Transcript accounting is bit-identical.
    assert fast_acc.comparisons == slow_acc.comparisons
    assert fast_acc.ot_invocations == slow_acc.ot_invocations
    assert fast_acc.messages == slow_acc.messages
    assert fast_acc.bits == slow_acc.bits
    # The ledgers carry the same traffic (canonical per-round multiset: the
    # kernel logs a few ``send_many`` blocks, the reference loop one
    # ``exchange`` per message).
    assert fast_env.ledger.message_records() == slow_env.ledger.message_records()
    assert fast_env.ledger.summary(fast_env.num_devices) == slow_env.ledger.summary(
        slow_env.num_devices
    )
    np.testing.assert_array_equal(
        fast_env.ledger.per_device_message_counts(fast_env.num_devices),
        slow_env.ledger.per_device_message_counts(slow_env.num_devices),
    )
    # Both loops leave every RNG stream in the same state.
    assert (
        fast_env.server.rng.bit_generator.state
        == slow_env.server.rng.bit_generator.state
    )


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
    neighbour is its hub, so the hub is the unique maximum around it."""
    edges = [(0, 1)]
    edges += [(0, 2 + leaf) for leaf in range(leaves)]
    edges += [(1, 2 + leaves + leaf) for leaf in range(leaves)]
    num_nodes = 2 + 2 * leaves
    return Graph(num_nodes=num_nodes, edges=np.asarray(edges), features=np.zeros((num_nodes, 1)))


def _scanned_maxima(kernel, vertices):
    """``_neighborhood_maxima`` as the per-neighbour loop it replaced."""
    maxima, attained = [], []
    for w in vertices:
        maximum, count = 0, 0
        for v in kernel._neighbors[w]:
            value = int(kernel.workload[v])
            if value > maximum:
                maximum, count = value, 1
            elif value == maximum:
                count += 1
        maxima.append(maximum)
        attained.append(count)
    return maxima, attained


def _assert_kernel_state_is_from_scratch(kernel):
    fresh = _IncrementalBalancingKernel(kernel.environment, kernel.assignment.copy())
    assert kernel.neighbor_max == fresh.neighbor_max
    assert kernel.neighbor_max_count == fresh.neighbor_max_count
    np.testing.assert_array_equal(kernel.candidate, fresh.candidate)
    np.testing.assert_array_equal(kernel.workload, fresh.workload)


class _CountingRows:
    """Adjacency rows that count how many of them were read."""

    def __init__(self, rows):
        self._rows = rows
        self.reads = 0

    def __getitem__(self, vertex):
        self.reads += 1
        return self._rows[vertex]


class TestSegmentedRescan:
    """The rescan of a neighbourhood that lost its unique maximum is one
    segmented pass over CSR rows; the per-neighbour loop is its oracle."""

    def test_double_star_run_matches_the_reference_loop(self):
        # Every move of a hub rescans all of its leaves.
        for seed in (0, 1):
            _assert_equivalent(_double_star(12), seed=seed, iterations=80)

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
    def test_maxima_match_the_per_neighbour_loop(self, graph, select):
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        assignment = full_assignment(environment)
        if select == "none":
            assignment = Assignment(
                environment.indptr, environment.indices, np.zeros_like(assignment.kept)
            )
        kernel = _IncrementalBalancingKernel(environment, assignment)
        vertices = list(range(graph.num_nodes)) + [1, 1, 0]  # repeats allowed
        maxima, attained = kernel._neighborhood_maxima(vertices)
        expected = _scanned_maxima(kernel, vertices)
        assert (maxima.tolist(), attained.tolist()) == expected
        assert maxima.dtype == attained.dtype == np.int64

    def test_isolated_vertices_read_zero_and_hold_no_segment(self):
        # Device 1 lists no neighbour although device 0 lists it, device 3 is
        # isolated outright: empty CSR rows at the front, middle and end.
        indptr, indices = csr_from_lists([[1, 2], [], [0], []])
        features = np.random.default_rng(0).random((4, 2))
        environment = FederatedEnvironment.from_partition((indptr, indices, features), seed=0)
        kernel = _IncrementalBalancingKernel(
            environment, assignment_from_lists(environment, {0: [1, 2], 1: [], 2: [0], 3: []})
        )
        for vertices in ([1], [3, 1], [1, 0, 3, 2, 3], [0, 2], []):
            maxima, attained = kernel._neighborhood_maxima(vertices)
            assert (maxima.tolist(), attained.tolist()) == _scanned_maxima(kernel, vertices)

    def test_incremental_state_equals_from_scratch_after_apply_and_revert(self):
        graph = _double_star(5)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        kernel = _IncrementalBalancingKernel(environment, full_assignment(environment))
        kernel.apply(0, [2, 3, 1])  # hub 0 sheds two leaves and the other hub
        _assert_kernel_state_is_from_scratch(kernel)
        kernel.revert()  # several simultaneous decrements: the two-phase branch
        _assert_kernel_state_is_from_scratch(kernel)
        kernel.apply(1, [0])
        kernel.commit(int(kernel.workload.max()))
        kernel.apply(0, [4])
        _assert_kernel_state_is_from_scratch(kernel)

    def test_a_hub_decrement_reads_only_the_moved_rows(self):
        # All 2 000 leaves lose their unique maximum at once.  The loop read
        # one adjacency row per rescanned leaf (2 001 in all); the segmented
        # pass reads the rows of the moved vertices and nothing else.
        graph = generate_star(num_leaves=2000, seed=0)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        kernel = _IncrementalBalancingKernel(environment, full_assignment(environment))
        hub = int(np.argmax(kernel.workload))
        leaf = kernel._neighbors[hub][0]
        kernel._neighbors = rows = _CountingRows(kernel._neighbors)
        kernel.apply(hub, [leaf])
        assert rows.reads <= 2
        kernel._neighbors = rows._rows
        assert kernel.neighbor_max.count(1999) == 2000
        _assert_kernel_state_is_from_scratch(kernel)


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
        _, environment, _ = _balanced(graph, iterations=50)
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
        _, environment, _ = _balanced(graph, iterations=50)
        ledger = environment.ledger
        summary = ledger.summary()
        records = ledger.message_records()
        assert summary["total_messages"] == len(records) == len(ledger.messages)
        assert summary["total_bytes"] == sum(record[4] for record in records)
        by_kind = sum(value for key, value in summary.items() if key.startswith("messages_"))
        assert by_kind == len(records)


def _scanned_prefixes(kernel):
    """Alg. 3's executed prefixes as the per-device scan the loop runs, rebuilt
    from scratch: ``(executed, candidate, partners, owners, own, other)``."""
    workload = kernel.workload.tolist()
    executed, candidate, partners, owners = [], [], [], []
    for device, row in enumerate(kernel._neighbors):
        stop = next((i for i, v in enumerate(row) if workload[v] > workload[device]), None)
        length = len(row) if stop is None else stop + 1
        executed.append(length)
        candidate.append(stop is None)
        partners += row[:length]
        owners += [device] * length
    own = [workload[device] for device in owners]
    other = [workload[v] for v in partners]
    return executed, candidate, partners, owners, own, other


def _assert_prefixes_are_from_scratch(kernel):
    memo = kernel._prefix_memo[kernel._version]
    assert [array.tolist() for array in memo] == list(_scanned_prefixes(kernel))


def _walk_case(name):
    """``(environment, assignment)`` of one speculation-walk case."""
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


class TestSecureSpeculation:
    """The secure Alg. 3 keeps each device's executed-prefix length per kernel
    version and, after a transfer, re-derives only the rows it touched."""

    @pytest.mark.parametrize("case", ["star", "isolated", "ring", "social"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_prefix_lengths_equal_a_from_scratch_scan_along_a_walk(self, case, seed):
        environment, assignment = _walk_case(case)
        kernel = _IncrementalBalancingKernel(environment, assignment)
        comparator = SecureComparator(bit_width=24)
        rng = np.random.default_rng(seed)
        for step in range(40):
            # Skipping some calls leaves versions no call evaluated: the
            # next call then scans every row.
            if rng.random() < 0.8:
                kernel.find_max_workload_device_secure(comparator, step)
                _assert_prefixes_are_from_scratch(kernel)
            holders = [v for v, chosen in kernel.assignment.as_lists().items() if chosen]
            if not holders:
                break
            source = int(rng.choice(holders))
            chosen = kernel.assignment.kept_neighbors(source).tolist()
            size = int(rng.integers(1, len(chosen) + 1))
            kernel.apply(source, [int(v) for v in rng.choice(chosen, size, replace=False)])
            kernel.find_max_workload_device_secure(comparator, step)
            _assert_prefixes_are_from_scratch(kernel)
            if rng.random() < 0.5:
                kernel.commit(int(kernel.workload.max()))
            else:
                kernel.revert()
            _assert_kernel_state_is_from_scratch(kernel)

    def test_a_speculation_miss_reads_only_the_touched_rows(self, monkeypatch):
        # A ring of 2 000 where every device keeps both neighbours, except
        # that 499 keeps none and 501 keeps only 502.  Moving 500's edge to
        # 501 changes those two workloads: the miss rescans their rows and
        # 502's, whose prefix holds 501 — not 499's, whose scan stops at 498
        # before it reaches 500, and none of the other 1 996 rows.
        lists = [[(v - 1) % 2000, (v + 1) % 2000] for v in range(2000)]
        selected = {v: list(row) for v, row in enumerate(lists)}
        selected[499], selected[501] = [], [502]
        indptr, indices = csr_from_lists(lists)
        environment = FederatedEnvironment.from_partition(
            (indptr, indices, np.zeros((2000, 1))), seed=0
        )
        kernel = _IncrementalBalancingKernel(environment, assignment_from_lists(environment, selected))
        comparator = SecureComparator(bit_width=24)
        scanned = []
        scan = kernel._scan_prefixes
        monkeypatch.setattr(
            kernel, "_scan_prefixes", lambda rows: scanned.append(list(rows)) or scan(rows)
        )
        kernel.find_max_workload_device_secure(comparator, 0)
        assert [len(rows) for rows in scanned] == [2000]  # the cold call
        scanned.clear()
        kernel.apply(500, [501])
        kernel.find_max_workload_device_secure(comparator, 0)
        assert len(scanned) == 1 and sorted(set(scanned[0])) == [500, 501, 502]
        assert len(scanned[0]) == 5  # rows may repeat: 500 and 501 hold each other
        _assert_prefixes_are_from_scratch(kernel)
        # A revert returns to a memoised version: nothing is rescanned.
        scanned.clear()
        kernel.revert()
        kernel.find_max_workload_device_secure(comparator, 1)
        assert scanned == []
        _assert_prefixes_are_from_scratch(kernel)


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
