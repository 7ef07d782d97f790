"""Tests for the greedy initialisation, Alg. 3 and the MCMC balancer."""

from __future__ import annotations

import numpy as np
import pytest

from helpers.oracles import find_max_workload_device

from repro.core import (
    Assignment,
    MCMCBalancer,
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
)
from repro.crypto import TranscriptAccountant
from repro.federation import FederatedEnvironment
from repro.graph import generate_facebook_like, generate_star


@pytest.fixture()
def star_environment(star_graph):
    return FederatedEnvironment.from_graph(star_graph, seed=0)


@pytest.fixture()
def social_environment(social_graph):
    return FederatedEnvironment.from_graph(social_graph, seed=0)


class TestGreedyInitialization:
    def test_star_center_sheds_its_branches(self, star_graph, star_environment):
        """Alg. 1 on a star: the hub (bucket 2) drops leaves (bucket 0), leaves keep the hub."""
        assignment = greedy_initialization(star_environment, rng=np.random.default_rng(0))
        assert assignment.workload(0) == 0
        assert all(assignment.workload(v) == 1 for v in range(1, star_graph.num_nodes))
        assert assignment.covers_all_edges(star_graph)

    def test_coverage_constraint_always_holds(self, social_graph, social_environment):
        assignment = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        assert assignment.covers_all_edges(social_graph)
        assert assignment.is_consistent_with(social_graph)

    def test_objective_not_worse_than_untrimmed(self, social_graph, social_environment):
        assignment = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        assert assignment.objective() <= Assignment.full(social_graph).objective()

    def test_equal_degree_endpoints_both_keep_the_edge(self):
        graph = generate_star(num_leaves=1)  # a single edge, both endpoints degree 1
        environment = FederatedEnvironment.from_graph(graph, seed=0)
        assignment = greedy_initialization(environment, rng=np.random.default_rng(0))
        assert assignment.workload(0) == 1 and assignment.workload(1) == 1

    def test_transcript_records_comparisons(self, social_environment):
        accountant = TranscriptAccountant()
        greedy_initialization(social_environment, accountant=accountant, rng=np.random.default_rng(0))
        # One secure comparison per directed neighbour relation.
        expected = sum(device.degree for device in social_environment.devices.values())
        assert accountant.comparisons == expected
        assert accountant.bits > 0

    def test_assignment_installed_on_environment(self, social_environment):
        assignment = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        assert social_environment.workloads() == assignment.workloads()


class TestFindMaxWorkloadDevice:
    def test_fast_path_finds_global_maximum(self, social_graph, social_environment):
        assignment = Assignment.full(social_graph)
        chosen = find_max_workload_device(social_environment, assignment)
        assert assignment.workload(chosen) == assignment.objective()

    def test_secure_path_agrees_with_fast_path(self, small_graph):
        from repro.crypto import WorkloadComparisonProtocol

        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        assignment = Assignment.full(small_graph)
        fast = find_max_workload_device(environment, assignment)
        protocol = WorkloadComparisonProtocol(rng=np.random.default_rng(0))
        secure = find_max_workload_device(
            environment, assignment, protocol=protocol, per_device_ledger=True
        )
        assert assignment.workload(fast) == assignment.workload(secure)

    def test_accountant_charged_analytically(self, social_graph, social_environment):
        assignment = Assignment.full(social_graph)
        accountant = TranscriptAccountant()
        find_max_workload_device(social_environment, assignment, accountant=accountant)
        assert accountant.comparisons >= 2 * social_graph.num_edges


class TestMCMCBalancer:
    def test_objective_never_ends_above_start(self, social_graph, social_environment):
        initial = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        balancer = MCMCBalancer(social_environment, iterations=60, rng=np.random.default_rng(1))
        result = balancer.run(initial)
        assert result.final_objective <= result.initial_objective
        assert result.iterations == 60
        assert len(result.objective_history) == 61

    def test_coverage_preserved_by_every_transition(self, social_graph, social_environment):
        initial = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        balancer = MCMCBalancer(social_environment, iterations=40, rng=np.random.default_rng(2))
        result = balancer.run(initial)
        assert result.assignment.covers_all_edges(social_graph)
        assert result.assignment.is_consistent_with(social_graph)

    def test_balancing_beats_untrimmed_objective(self, social_graph, social_environment):
        initial = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        balancer = MCMCBalancer(social_environment, iterations=80, rng=np.random.default_rng(3))
        result = balancer.run(initial)
        untrimmed = Assignment.full(social_graph).objective()
        assert result.final_objective < untrimmed

    def test_zero_iterations_is_identity(self, social_graph, social_environment):
        initial = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        balancer = MCMCBalancer(social_environment, iterations=0)
        result = balancer.run(initial)
        assert result.assignment.as_lists() == initial.as_lists()
        assert result.acceptance_rate == 0.0

    def test_validation(self, social_environment):
        with pytest.raises(ValueError):
            MCMCBalancer(social_environment, iterations=-1)

    def test_acceptance_rate_bounded(self, social_graph, social_environment):
        initial = greedy_initialization(social_environment, rng=np.random.default_rng(0))
        balancer = MCMCBalancer(social_environment, iterations=30, rng=np.random.default_rng(4))
        result = balancer.run(initial)
        assert 0.0 <= result.acceptance_rate <= 1.0

    def test_secure_mode_matches_objective_semantics(self, star_graph):
        environment = FederatedEnvironment.from_graph(star_graph, seed=0)
        initial = Assignment.full(star_graph)
        balancer = MCMCBalancer(environment, iterations=10, secure=True, rng=np.random.default_rng(0))
        result = balancer.run(initial)
        assert result.assignment.covers_all_edges(star_graph)
        assert result.final_objective <= initial.objective()


class TestTreeConstructor:
    def test_full_pipeline_balances_and_builds_trees(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        constructor = TreeConstructor(TreeConstructorConfig(mcmc_iterations=60),
                                      rng=np.random.default_rng(0))
        result = constructor.construct(environment)
        assert result.used_tree_trimming and result.used_virtual_nodes
        assert result.assignment.covers_all_edges(social_graph)
        assert result.max_workload() < int(social_graph.degrees().max())
        assert len(result.local_graphs) == social_graph.num_nodes
        # Tree sizes follow 3*wl + 1 (or 1 for empty selections).
        for device_id, graph in result.local_graphs.items():
            workload = result.assignment.workload(device_id)
            assert graph.num_nodes == (1 if workload == 0 else 3 * workload + 1)

    def test_without_trimming_keeps_all_neighbors(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        constructor = TreeConstructor(TreeConstructorConfig(use_tree_trimming=False),
                                      rng=np.random.default_rng(0))
        result = constructor.construct(environment)
        assert result.mcmc_result is None and result.greedy_assignment is None
        assert result.max_workload() == int(social_graph.degrees().max())

    def test_without_virtual_nodes_builds_stars(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        constructor = TreeConstructor(
            TreeConstructorConfig(use_virtual_nodes=False, mcmc_iterations=30),
            rng=np.random.default_rng(0),
        )
        result = constructor.construct(environment)
        assert not result.used_virtual_nodes
        for device_id, graph in result.local_graphs.items():
            workload = result.assignment.workload(device_id)
            assert graph.num_nodes == workload + 1

    def test_total_tree_nodes_consistent(self, social_graph):
        environment = FederatedEnvironment.from_graph(social_graph, seed=0)
        constructor = TreeConstructor(TreeConstructorConfig(mcmc_iterations=20),
                                      rng=np.random.default_rng(0))
        result = constructor.construct(environment)
        assert result.total_tree_nodes() == sum(
            graph.num_nodes for graph in result.local_graphs.values()
        )
