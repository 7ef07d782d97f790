"""Design-choice ablation (beyond the paper's figures): greedy vs greedy+MCMC.

The two-stage balancing (docs/architecture.md §6) is a design choice worth
quantifying: the greedy initialisation alone already removes most of the
imbalance for high-degree hubs, and the MCMC iterations then shave off the
remaining peak.  This bench reports the objective f(X) after each stage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MCMCBalancer, greedy_initialization
from repro.eval.reporting import format_table
from repro.federation import FederatedEnvironment
from repro.graph import load_dataset


@pytest.mark.benchmark(group="ablation-mcmc")
@pytest.mark.parametrize("dataset", ["facebook", "lastfm"])
def test_balancing_stage_contributions(benchmark, scale, dataset):
    """Objective value after no trimming, greedy only, and greedy + MCMC."""
    graph = load_dataset(dataset, seed=scale.seed, num_nodes=scale.num_nodes)

    def run():
        environment = FederatedEnvironment.from_graph(graph, seed=scale.seed)
        untrimmed = int(graph.degrees().max())
        greedy = greedy_initialization(environment, rng=np.random.default_rng(scale.seed))
        greedy_objective = greedy.objective()
        balancer = MCMCBalancer(
            environment, iterations=scale.mcmc_iterations, rng=np.random.default_rng(scale.seed)
        )
        mcmc_result = balancer.run(greedy)
        return {
            "untrimmed": untrimmed,
            "greedy": greedy_objective,
            "greedy+mcmc": mcmc_result.final_objective,
            "acceptance_rate": mcmc_result.acceptance_rate,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n[Ablation] Balancing stages — {dataset}")
    print(
        format_table(
            ["stage", "max workload f(X)"],
            [
                ["no trimming", result["untrimmed"]],
                ["greedy only (Alg. 1)", result["greedy"]],
                ["greedy + MCMC (Alg. 2)", result["greedy+mcmc"]],
            ],
            float_format="{:.0f}",
        )
    )
    assert result["greedy"] <= result["untrimmed"]
    assert result["greedy+mcmc"] <= result["greedy"]
    assert result["greedy+mcmc"] < result["untrimmed"]
