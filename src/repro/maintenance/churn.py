"""Churn-driven maintenance runs: schedules, metrics and the chaos harness.

Bridges the fault layer to the maintenance layer: a compiled
:class:`~repro.faults.FaultPlan` churn chain becomes a flat, state-free
mutation *schedule* (``compile_churn_schedule``), which drives a
:class:`~repro.maintenance.tree.MaintainedTree` through real joins/leaves
instead of masks.  Two consumers share the schedule:

* :func:`churn_maintenance_metrics` — the module-level ``CallableItem``
  target behind ``eval.runner.run_churn_maintenance``; it returns a fully
  deterministic metrics dictionary (counters, objectives, digests — no
  wall-clock values), which is what makes serial vs process execution
  bit-identical, and asserts ``replay(journal) == live`` inline before
  returning;
* the kill-replay harness (:func:`run_schedule`, :func:`first_crash_seq`) —
  a child process runs the schedule with a :class:`ChaosConfig` that kills
  it mid-journal-write; the parent recovers the torn journal, finishes the
  schedule, and the acceptance contract is digest equality with an
  uninterrupted run.  Used by both the tests and the gate-tracked
  ``tree_maintenance`` bench section.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.config import TreeConstructorConfig
from ..core.constructor import TreeConstructor
from ..faults.config import FaultScenarioConfig
from ..faults.plan import FaultPlan
from ..federation.simulator import FederatedEnvironment
from ..graph import load_dataset
from ..runtime.worker import ChaosConfig, chaos_action
from .journal import MutationJournal
from .monitor import StalenessMonitor
from .tree import MaintainedTree, MaintenanceConfig

__all__ = [
    "compile_churn_schedule",
    "apply_schedule",
    "churn_maintenance_metrics",
    "run_schedule",
    "first_crash_seq",
]

#: Schedule entries: ("remove", device) | ("insert", device, neighbors) |
#: ("rebalance", iterations).  State-free on purpose — entry ``i`` always
#: produces mutation record ``seq == i + 1``, so a recovered tree resumes at
#: ``schedule[tree.seq:]``.
Spec = tuple


def compile_churn_schedule(
    plan: FaultPlan,
    ego_neighbors: Mapping[int, Iterable[int]],
    rebalance_every: int = 0,
    rebalance_iterations: int = 25,
) -> List[Spec]:
    """Flatten a fault plan's churn chain into tree-mutation specs.

    Inserts carry the device's *original* ego neighbours; the tree filters
    them to currently-present peers at apply time, so the schedule stays
    independent of the state it will be applied to.  When
    ``rebalance_every > 0`` a localized rebalance spec follows every
    ``rebalance_every``-th round's churn.
    """
    specs: List[Spec] = []
    for round_index, joins, leaves in plan.churn_events():
        for device in leaves:
            specs.append(("remove", device))
        for device in joins:
            specs.append(
                ("insert", device, tuple(int(v) for v in ego_neighbors[device]))
            )
        if rebalance_every and (round_index + 1) % rebalance_every == 0:
            specs.append(("rebalance", rebalance_iterations))
    return specs


def apply_schedule(tree: MaintainedTree, schedule: List[Spec], start: int = 0) -> int:
    """Apply ``schedule[start:]`` to ``tree``; returns the final ``tree.seq``."""
    for spec in schedule[start:]:
        kind = spec[0]
        if kind == "remove":
            tree.remove_device(spec[1])
        elif kind == "insert":
            tree.insert_device(spec[1], spec[2])
        elif kind == "rebalance":
            tree.rebalance(iterations=spec[1])
        else:
            raise ValueError(f"unknown schedule spec {spec!r}")
    return tree.seq


def _constructed_tree(
    dataset: str,
    num_nodes: Optional[int],
    seed: int,
    mcmc_iterations: int,
) -> Tuple[Dict[int, List[int]], Dict[int, List[int]], int]:
    """Deterministic construction shared by every process of a harness run."""
    graph = load_dataset(dataset, seed=seed, num_nodes=num_nodes)
    environment = FederatedEnvironment.from_graph(graph, seed=seed)
    constructor = TreeConstructor(
        TreeConstructorConfig(mcmc_iterations=mcmc_iterations),
        rng=np.random.default_rng(seed),
    )
    construction = constructor.construct(environment)
    ego = {
        vertex: [int(v) for v in graph.neighbors(vertex)]
        for vertex in range(graph.num_nodes)
    }
    return construction.assignment.as_lists(), ego, graph.num_nodes


# --------------------------------------------------------------------------- #
# Kill-replay harness
# --------------------------------------------------------------------------- #
def first_crash_seq(chaos: ChaosConfig, num_mutations: int) -> Optional[int]:
    """The seq of the first mutation whose journal append will crash.

    Pure function (mirrors the tree's ``chaos_action`` keying), so the
    parent process can predict where its child will die — and pick a chaos
    seed that lands the kill mid-schedule rather than at either edge.
    """
    for seq in range(1, num_mutations + 1):
        if chaos_action(chaos, f"maintenance/{seq}", 1) == "crash":
            return seq
    return None


def run_schedule(
    journal_path: str,
    snapshot_dir: str,
    dataset: str = "facebook",
    num_nodes: Optional[int] = 120,
    seed: int = 0,
    scenario: FaultScenarioConfig = FaultScenarioConfig(
        join_rate=0.30, leave_rate=0.10, fault_seed=13
    ),
    rounds: int = 10,
    mcmc_iterations: int = 40,
    rebalance_every: int = 4,
    maintenance_seed: int = 0,
    chaos: Optional[ChaosConfig] = None,
) -> str:
    """Build the tree, run the full churn schedule, return the state digest.

    Module-level (and fork/spawn-safe) so it can be the target of the chaos
    child process: with a crashing ``chaos`` the process dies with exit code
    86 mid-journal-write and never returns.
    """
    from ..engine.store import DiskSpillStore

    lists, ego, num_devices = _constructed_tree(
        dataset, num_nodes, seed, mcmc_iterations
    )
    plan = FaultPlan.compile(scenario, num_devices, rounds)
    schedule = compile_churn_schedule(plan, ego, rebalance_every=rebalance_every)
    journal = MutationJournal.create(journal_path)
    snapshots = DiskSpillStore(snapshot_dir, max_bytes=64 * 1024 * 1024)
    tree = MaintainedTree.from_construction(
        lists,
        ego,
        MaintenanceConfig(seed=maintenance_seed),
        journal=journal,
        snapshots=snapshots,
        chaos=chaos,
    )
    apply_schedule(tree, schedule)
    digest = tree.state_digest()
    journal.close()
    return digest


def resume_schedule(
    journal_path: str,
    snapshot_dir: str,
    dataset: str = "facebook",
    num_nodes: Optional[int] = 120,
    seed: int = 0,
    scenario: FaultScenarioConfig = FaultScenarioConfig(
        join_rate=0.30, leave_rate=0.10, fault_seed=13
    ),
    rounds: int = 10,
    mcmc_iterations: int = 40,
    rebalance_every: int = 4,
) -> Tuple[str, int]:
    """Recover a (possibly torn) journal and finish the schedule.

    Returns ``(state digest, resume index)``.  The resume index is simply
    the recovered ``tree.seq`` — each schedule entry journals exactly one
    mutation, which is the invariant that makes crash recovery a slice.
    """
    from ..engine.store import DiskSpillStore

    _, ego, num_devices = _constructed_tree(dataset, num_nodes, seed, mcmc_iterations)
    plan = FaultPlan.compile(scenario, num_devices, rounds)
    schedule = compile_churn_schedule(plan, ego, rebalance_every=rebalance_every)
    snapshots = DiskSpillStore(snapshot_dir, max_bytes=64 * 1024 * 1024)
    tree = MaintainedTree.recover(journal_path, snapshots)
    resumed_at = tree.seq
    apply_schedule(tree, schedule, start=resumed_at)
    digest = tree.state_digest()
    tree.journal.close()
    return digest, resumed_at


# --------------------------------------------------------------------------- #
# Runner entry point body (CallableItem target)
# --------------------------------------------------------------------------- #
def churn_maintenance_metrics(
    dataset: str = "facebook",
    num_nodes: Optional[int] = 300,
    seed: int = 0,
    scenario: FaultScenarioConfig = FaultScenarioConfig(
        join_rate=0.30, leave_rate=0.10, fault_seed=13
    ),
    rounds: int = 24,
    mcmc_iterations: int = 100,
    staleness_bound: float = 0.25,
    rebuild_bound: float = 1.0,
    check_every: int = 6,
    reference_iterations: int = 60,
) -> Dict[str, float]:
    """One churn-maintenance run; every returned value is deterministic.

    Constructs the tree, drives the full churn schedule through journalled
    delta operations with periodic :class:`StalenessMonitor` checks, then
    replays the journal and asserts bit-identity with the live tree before
    returning.  No wall-clock numbers appear in the result, so the serial
    and process executors produce identical payloads (the runner's
    determinism contract).
    """
    from ..engine.store import DiskSpillStore

    lists, ego, num_devices = _constructed_tree(
        dataset, num_nodes, seed, mcmc_iterations
    )
    plan = FaultPlan.compile(scenario, num_devices, rounds)
    initial_objective = max((len(v) for v in lists.values()), default=0)
    with tempfile.TemporaryDirectory(prefix="repro-maintenance-") as tmp:
        journal = MutationJournal.create(Path(tmp) / "journal.lmj")
        snapshots = DiskSpillStore(
            Path(tmp) / "snapshots", max_bytes=64 * 1024 * 1024
        )
        tree = MaintainedTree.from_construction(
            lists,
            ego,
            MaintenanceConfig(seed=seed),
            journal=journal,
            snapshots=snapshots,
        )
        monitor = StalenessMonitor(
            staleness_bound=staleness_bound,
            rebuild_bound=rebuild_bound,
            reference_iterations=reference_iterations,
        )
        for round_index, joins, leaves in plan.churn_events():
            for device in leaves:
                tree.remove_device(device)
            for device in joins:
                tree.insert_device(device, ego[device])
            if check_every and (round_index + 1) % check_every == 0:
                monitor.check(tree, round_index=round_index)
        tree.snapshot()
        live_digest = tree.state_digest()
        journal.close()
        replayed = MaintainedTree.replay(journal.path, snapshots)
        if replayed.state_digest() != live_digest:
            raise RuntimeError(
                "maintenance replay contract violated: "
                "replay(journal) != live tree"
            )
        counters = dict(tree.counters)
        metrics: Dict[str, float] = {
            "devices": float(num_devices),
            "present_devices": float(len(tree.present())),
            "rounds": float(rounds),
            "mutations": float(tree.seq),
            "initial_objective": float(initial_objective),
            "final_objective": float(tree.objective()),
            "replay_matches_live": 1.0,
            "mean_participation": plan.summary()["mean_participation"],
            "ledger_messages": float(len(tree.ledger.messages)),
            "comparisons": float(tree.accountant.comparisons),
        }
        for name in ("joins", "leaves", "rebalances", "rebuilds", "edges_added"):
            metrics[name] = float(counters[name])
        summary = monitor.summary()
        metrics["staleness_checks"] = summary["checks"]
        metrics["max_staleness"] = summary["max_staleness"]
        metrics["mean_staleness"] = summary["mean_staleness"]
        metrics["final_staleness"] = summary["final_staleness"]
        # Escalation breakdown per action and the snapshot store's traffic
        # counters.  All deterministic (counts of deterministic events), so
        # the serial/process bit-identity contract extends to them.
        for action in ("none", "rebalance", "rebuild"):
            metrics[f"escalations_{action}"] = float(
                sum(1 for report in monitor.reports if report.action == action)
            )
        store_stats = snapshots.stats()
        for name in (
            "entries",
            "hits",
            "misses",
            "evictions",
            "spill_writes",
            "spill_loads",
            "integrity_failures",
            "in_memory_bytes",
        ):
            metrics[f"snapshot_store_{name}"] = float(store_stats[name])
    return metrics
