"""Quickstart: run the full Lumos pipeline end to end on a small social graph.

This script covers the public API in ~40 lines:

1. load (or generate) a node-level federated graph,
2. configure Lumos (tree constructor + tree-based GNN trainer),
3. train a supervised node classifier with feature and degree protection,
4. inspect both the accuracy and the system-side metrics,
5. trace a parallel sweep and export a Perfetto-loadable Chrome trace.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import obs
from repro.core import LumosSystem, default_config_for
from repro.eval.runner import (
    ExperimentScale,
    run_churn_maintenance,
    run_epsilon_sweep,
    run_robustness_sweep,
)
from repro.faults import FaultScenarioConfig
from repro.graph import load_dataset, split_nodes
from repro.runtime import ProcessExecutor


def main() -> None:
    # A synthetic stand-in for the Facebook Page-Page graph (see
    # repro.graph.generators); pass num_nodes=None for the full-size one.
    graph = load_dataset("facebook", seed=0, num_nodes=300)
    print(f"Loaded {graph.name}: {graph.num_nodes} devices, {graph.num_edges} edges, "
          f"{graph.num_features} features, {graph.num_classes} classes")

    # Paper defaults (GCN backbone, eps=2, 2 layers, hidden 16); scaled-down
    # MCMC iterations and epochs so the quickstart finishes in seconds.
    config = (
        default_config_for("facebook")
        .with_backbone("gcn")
        .with_mcmc_iterations(150)
        .with_epochs(80)
    )

    system = LumosSystem(graph, config)
    split = split_nodes(graph, train_fraction=0.5, val_fraction=0.25, seed=0)
    result = system.run_supervised(split)
    history = result.history
    for epoch in range(19, len(history.losses), 20):
        print(f"[lumos supervised] epoch {epoch + 1}/{len(history.losses)} "
              f"loss={history.losses[epoch]:.4f} val_acc={history.val_accuracy[epoch]:.4f}")

    print("\n=== Lumos results ===")
    print(f"test accuracy:                    {result.test_accuracy:.4f}")
    print(f"best validation accuracy:         {result.best_val_accuracy:.4f}")
    print(f"max workload after trimming:      {result.construction.max_workload()} "
          f"(max degree without trimming: {int(graph.degrees().max())})")
    print(f"avg communication rounds/device:  {result.communication_rounds_per_device:.2f} per epoch")
    print(f"simulated epoch completion time:  {result.simulated_epoch_time:.2f} s")
    print(f"secure comparisons executed:      {int(result.construction.transcript.comparisons)}")

    # The expensive pipeline stages went through the staged execution engine;
    # a second system over the same graph (here: the GAT backbone) replays
    # partition, tree construction, LDP init and batch assembly from the
    # content-keyed artifact store and only retrains.
    gat_system = LumosSystem(graph, config.with_backbone("gat"))
    gat_result = gat_system.run_supervised(split)
    print("\n=== Engine reuse (GAT backbone rides on cached stages) ===")
    print(f"GAT test accuracy:                {gat_result.test_accuracy:.4f}")
    for stage, stats in gat_system.engine_stats().items():
        print(f"stage {stage:<14} hits={stats['hits']} misses={stats['misses']}")

    # Independent experiment arms can also be scheduled across worker
    # processes (repro.runtime): the shared pipeline prefix is computed once,
    # per-point work fans out, and the merged results are bit-for-bit
    # identical to the serial loop — same numbers, sooner on multi-core.
    sweep = run_epsilon_sweep(
        "facebook",
        epsilons=[0.5, 1.0, 2.0, 4.0],
        scale=ExperimentScale(num_nodes=300, epochs=20, mcmc_iterations=150),
        # The default (executor=None) is a SerialExecutor over the
        # process-wide artifact store.
        executor=ProcessExecutor(max_workers=2),
    )
    print("\n=== Parallel epsilon sweep (ProcessExecutor, 2 workers) ===")
    for epsilon, accuracy in sweep.items():
        print(f"epsilon={epsilon:<4} test accuracy: {accuracy:.4f}")

    # Federations are rarely fully reliable.  A FaultScenarioConfig compiles
    # into a seeded per-round availability/latency schedule (repro.faults);
    # training degrades gracefully — offline devices charge nothing, evicted
    # or lost updates are charged but dropped, and surviving updates are
    # reweighted — and every scenario reports its accuracy delta against the
    # fault-free baseline.  An empty scenario is bit-identical to the
    # fault-free path (it even shares the same cache keys).
    robustness = run_robustness_sweep(
        "facebook",
        scenarios={
            "baseline": FaultScenarioConfig(),
            "dropout_20": FaultScenarioConfig(dropout_rate=0.20, fault_seed=11),
            "stragglers": FaultScenarioConfig(
                straggler_rate=0.20, straggler_multiplier=4.0,
                round_deadline=2.5, fault_seed=14,
            ),
        },
        scale=ExperimentScale(num_nodes=300, epochs=20, mcmc_iterations=150),
    )
    print("\n=== Robustness under unreliable federations ===")
    for name, metrics in robustness.items():
        print(f"{name:<12} accuracy={metrics['test_accuracy']:.4f} "
              f"({metrics['accuracy_vs_baseline_percent']:+.1f}% vs baseline), "
              f"participation={metrics['mean_participation']:.2f}, "
              f"epoch time={metrics['mean_epoch_time']:.2f} s")

    # When devices join and leave between rounds, the constructed tree is
    # maintained in place instead of rebuilt: every delta mutation is
    # journalled (write-ahead, fsync'd, checksummed) before it applies, a
    # staleness monitor compares the live tree against a shadow fresh
    # construction and escalates rebalance -> rebuild when drift exceeds its
    # bounds, and the payload's replay_matches_live field asserts that
    # replaying the journal reproduces the live tree bit-for-bit.
    churn = run_churn_maintenance(
        "facebook",
        scenario=FaultScenarioConfig(join_rate=0.30, leave_rate=0.10, fault_seed=13),
        rounds=12,
        scale=ExperimentScale(num_nodes=300, epochs=20, mcmc_iterations=150),
        check_every=4,
    )
    print("\n=== Self-healing tree maintenance under churn ===")
    print(f"mutations journalled:   {int(churn['mutations'])} "
          f"({int(churn['joins'])} joins, {int(churn['leaves'])} leaves, "
          f"{int(churn['rebalances'])} rebalances, {int(churn['rebuilds'])} rebuilds)")
    print(f"max staleness observed: {churn['max_staleness']:.3f} "
          f"over {int(churn['staleness_checks'])} checks")
    print(f"journal replay == live: {bool(churn['replay_matches_live'])}")

    # Secure comparisons can also run as *two real OS processes* over a
    # CRC-checked framed channel (repro.crypto.transport): the driver keeps
    # results, accountant, ledger transcript and RNG stream bit-for-bit
    # identical to the in-process simulation above, while the bytes on the
    # wire are measured and reconciled exactly against the analytic
    # comparison_cost() model (the session raises MeasuredCostMismatch on
    # any divergence).  Benchmark it with:
    #   python3 perfbench/run.py --workload secure_construct_3k
    from repro.crypto import RemoteParty

    driver = RemoteParty(bit_width=16)
    outcome = driver.compare_batch([7, 200, 41], [9, 100, 41])
    print("\n=== Two-party secure comparison over real transport ===")
    print(f"left >= right:          {[bool(bit) for bit in outcome.left_ge_right]}")
    print(f"measured wire payload:  {outcome.report.protocol_payload_bytes} B "
          f"(analytic model: {outcome.report.analytic_payload_bytes} B)")
    print(f"frames on the wire:     {outcome.report.frames} "
          f"({outcome.report.wire_bytes} B incl. headers + session control)")

    # Every layer is instrumented with zero-dependency spans and counters
    # (repro.obs).  Tracing is invisible to the computation — results,
    # ledger, accountant and RNG state are bit-for-bit identical with the
    # tracer on or off — and worker processes ship their spans home inside
    # the result payloads, so one merged trace covers the whole pool.
    with obs.tracing() as tracer:
        run_epsilon_sweep(
            "facebook",
            epsilons=[0.5, 2.0, 4.0],
            scale=ExperimentScale(num_nodes=300, epochs=10, mcmc_iterations=150),
            executor=ProcessExecutor(max_workers=2),
        )
    trace = obs.RunTrace.from_tracer(tracer)
    path = obs.write_chrome_trace(trace, "lumos_trace.json")
    print("\n=== Observability: traced sweep ===")
    print(obs.summary_table(trace))
    print(f"Chrome trace written to {path} — open https://ui.perfetto.dev and "
          "load it to see one track per worker")


if __name__ == "__main__":
    main()
