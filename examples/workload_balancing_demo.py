"""System-side scenario: degree heterogeneity and the tree constructor.

This example walks through the heterogeneity-aware tree constructor on its
own (no GNN training): the greedy initialisation (Alg. 1), the MCMC balancing
iterations (Alg. 2/3) and the secure-comparison transcript, then prints the
workload CDF with and without trimming (cf. paper Fig. 7) and the projected
per-epoch system cost (cf. Fig. 8).

Run with::

    python examples/workload_balancing_demo.py [--nodes 400] [--mcmc 200]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import (
    EpochCostModel,
    LDPEmbeddingInitializer,
    MCMCBalancer,
    TrainerConfig,
    TreeBasedGNNTrainer,
    TreeConstructor,
    TreeConstructorConfig,
    greedy_initialization,
    workload_cdf,
)
from repro.eval.reporting import format_table, relative_savings_percent
from repro.federation import FederatedEnvironment
from repro.graph import load_dataset


def describe(workloads: np.ndarray) -> list:
    return [
        float(workloads.mean()),
        float(np.percentile(workloads, 95)),
        float(workloads.max()),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="facebook", choices=["facebook", "lastfm"])
    parser.add_argument("--nodes", type=int, default=400)
    parser.add_argument("--mcmc", type=int, default=200)
    args = parser.parse_args()

    graph = load_dataset(args.dataset, seed=0, num_nodes=args.nodes)
    print(f"{graph.name}: {graph.num_nodes} devices, {graph.num_edges} edges, "
          f"max degree {int(graph.degrees().max())}")

    # --- Stage 0: no trimming (every device keeps its whole ego network) -----
    untrimmed_workloads = graph.degrees()

    # --- Stage 1: greedy initialisation (Alg. 1) ------------------------------
    environment = FederatedEnvironment.from_graph(graph, seed=0)
    greedy = greedy_initialization(environment, rng=np.random.default_rng(0))

    # --- Stage 2: MCMC balancing (Alg. 2 + Alg. 3) ----------------------------
    balancer = MCMCBalancer(environment, iterations=args.mcmc, rng=np.random.default_rng(1))
    mcmc = balancer.run(greedy)
    print(f"\nMCMC: {args.mcmc} iterations, acceptance rate "
          f"{mcmc.acceptance_rate:.2f}, objective {mcmc.initial_objective} -> "
          f"{mcmc.final_objective}")

    print("\n=== Workload distribution (cf. paper Fig. 7) ===")
    rows = [
        ["no trimming"] + describe(untrimmed_workloads),
        ["greedy (Alg. 1)"] + describe(greedy.workload_array()),
        ["greedy + MCMC (Alg. 2)"] + describe(mcmc.assignment.workload_array()),
    ]
    print(format_table(["stage", "mean", "p95", "max"], rows, float_format="{:.1f}"))

    values, probabilities = workload_cdf(mcmc.assignment.workload_array())
    deciles = np.linspace(0.1, 1.0, 10)
    cdf_points = [values[np.searchsorted(probabilities, d, side="left")] for d in deciles]
    print("\nTrimmed-workload CDF deciles: "
          + ", ".join(f"P{int(d * 100)}<= {int(v)}" for d, v in zip(deciles, cdf_points)))

    # --- Projected per-epoch system cost (cf. paper Fig. 8) -------------------
    constructor = TreeConstructor(TreeConstructorConfig(mcmc_iterations=0),
                                  rng=np.random.default_rng(2))
    print("\n=== Projected per-epoch system cost (cf. paper Fig. 8) ===")
    cost_rows = []
    profiles = {}
    for label, use_trimming in (("Lumos", True), ("Lumos w.o. TT", False)):
        env = FederatedEnvironment.from_graph(graph, seed=0)
        cfg = TreeConstructorConfig(mcmc_iterations=args.mcmc if use_trimming else 0,
                                    use_tree_trimming=use_trimming)
        construction = TreeConstructor(cfg, rng=np.random.default_rng(3)).construct(env)
        initializer = LDPEmbeddingInitializer(epsilon=2.0, rng=np.random.default_rng(4))
        initialization = initializer.run(env, construction.assignment)
        trainer = TreeBasedGNNTrainer(env, construction, initialization,
                                      TrainerConfig(epochs=1), cost_model=EpochCostModel())
        rounds = trainer.communication_profile("supervised")["per_device_rounds"].mean()
        epoch_time = trainer.simulated_epoch_time("supervised")
        profiles[label] = (rounds, epoch_time)
        cost_rows.append([label, rounds, epoch_time])
    print(format_table(["system", "avg rounds/device/epoch", "epoch time (simulated s)"],
                       cost_rows, float_format="{:.2f}"))
    rounds_saved = relative_savings_percent(profiles["Lumos w.o. TT"][0], profiles["Lumos"][0])
    time_saved = relative_savings_percent(profiles["Lumos w.o. TT"][1], profiles["Lumos"][1])
    print(f"\nTrimming saves {rounds_saved:.1f}% communication rounds and "
          f"{time_saved:.1f}% simulated epoch time "
          f"(paper: 34-43% rounds, 10-36% time).")

    # The balancer runs in clear mode: Alg. 2 and Alg. 3 charge the
    # accountant the comparisons their protocols would run, and none runs.
    transcript = balancer.accountant
    print(f"\nComparisons charged (analytic): {transcript.comparisons} comparisons, "
          f"{transcript.ot_invocations} OT invocations, {transcript.bits} bits "
          f"(clear-mode balancing; secure=True executes the ones whose outcome "
          f"it cannot reuse).")


if __name__ == "__main__":
    main()
