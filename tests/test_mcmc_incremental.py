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

from helpers.oracles import construct_with_oracles, mcmc_run_reference
from helpers.tree_cases import csr_from_lists

from repro.core import (
    Assignment,
    MCMCBalancer,
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
)
from repro.core.mcmc import _IncrementalBalancingKernel
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
        assignment = Assignment.full(graph)
        if select == "none":
            assignment = Assignment(selected={v: set() for v in range(graph.num_nodes)})
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
            environment, Assignment.from_lists({0: [1, 2], 1: [], 2: [0], 3: []})
        )
        for vertices in ([1], [3, 1], [1, 0, 3, 2, 3], [0, 2], []):
            maxima, attained = kernel._neighborhood_maxima(vertices)
            assert (maxima.tolist(), attained.tolist()) == _scanned_maxima(kernel, vertices)

    def test_incremental_state_equals_from_scratch_after_apply_and_revert(self):
        graph = _double_star(5)
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        kernel = _IncrementalBalancingKernel(environment, Assignment.full(graph))
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
        kernel = _IncrementalBalancingKernel(environment, Assignment.full(graph))
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
        assignment = Assignment.full(social_graph)
        baseline = assignment.as_lists()
        vector = assignment.workload_vector(social_graph.num_nodes)
        baseline_vector = vector.copy()
        source = int(np.argmax(baseline_vector))
        targets = sorted(assignment.selected[source])[:3]

        record = assignment.apply_transfer(source, targets)
        assert assignment.workload(source) == baseline_vector[source] - len(targets)
        np.testing.assert_array_equal(
            vector, assignment.workload_array()[: vector.shape[0]]
        )
        assignment.undo_transfer(source, record)
        assert assignment.as_lists() == baseline
        np.testing.assert_array_equal(vector, baseline_vector)

    def test_transfer_matches_apply_transfer(self, social_graph):
        base = Assignment.full(social_graph)
        source = 0
        targets = sorted(base.selected[source])[:2]
        fresh = base.transfer(source, targets)
        mutated = base.copy()
        mutated.apply_transfer(source, targets)
        assert fresh.as_lists() == mutated.as_lists()
        # The original is untouched by transfer().
        assert base.as_lists() == Assignment.full(social_graph).as_lists()

    def test_invalid_target_rejected(self, social_graph):
        assignment = Assignment.full(social_graph)
        not_selected = next(
            v for v in range(social_graph.num_nodes)
            if v not in assignment.selected[0] and v != 0
        )
        with pytest.raises(ValueError):
            assignment.apply_transfer(0, [not_selected])

    def test_workload_vector_is_maintained_not_rebuilt(self, social_graph):
        assignment = Assignment.full(social_graph)
        vector = assignment.workload_vector(social_graph.num_nodes)
        assert vector is assignment.workload_vector(social_graph.num_nodes)
        copied = assignment.copy()
        assert copied.workload_vector(social_graph.num_nodes) is not vector


class TestKernelTranscriptBlocks:
    def test_kernel_transcript_is_columnar(self):
        graph = generate_facebook_like(seed=3, num_nodes=80)
        _, environment, _ = _balanced(graph, iterations=50)
        table = environment.ledger.messages
        descriptions = {description for _kind, description in table.labels}
        assert "alg3-candidate-announcements" in descriptions
        assert "alg3-comparisons" in descriptions
        # One block per flushed description, not one row per protocol step.
        assert len(table.column("round")) <= len(table.labels)
        assert len(table) > 10 * len(table.labels)

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
