"""Churn-driven maintenance runs.

Bridges the fault layer to the maintenance layer: a compiled
:class:`~repro.faults.FaultPlan` churn chain (``FaultPlan.churn_events``)
drives a :class:`~repro.maintenance.tree.MaintainedTree` through real
joins/leaves instead of masks.  :func:`churn_maintenance_metrics` is the body of
``eval.runner.run_churn_maintenance``; it returns a fully deterministic
metrics dictionary (counters, objectives, digests — no wall-clock values),
so two runs of one configuration are bit-identical, and asserts
``replay(journal) == live`` inline before returning.
"""

from __future__ import annotations

import numbers
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import TreeConstructorConfig
from ..core.constructor import TreeConstructor
from ..faults.config import FaultScenarioConfig
from ..faults.plan import FaultPlan
from ..federation.simulator import FederatedEnvironment
from ..graph import load_dataset
from .journal import MutationJournal
from .monitor import StalenessMonitor
from .tree import MaintainedTree, MaintenanceConfig

__all__ = ["churn_maintenance_metrics"]

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
# Runner entry point body
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
) -> Dict[str, float]:
    """One churn-maintenance run; every returned value is deterministic.

    Constructs the tree, drives the full churn schedule through journalled
    delta operations with periodic :class:`StalenessMonitor` checks, then
    replays the journal and asserts bit-identity with the live tree before
    returning.  No wall-clock numbers appear in the result, so two runs of
    one configuration return identical dictionaries.  ``check_every`` must
    be a non-negative integer; 0 means no staleness checks.
    """
    from ..engine.store import DiskSpillStore

    if (
        isinstance(check_every, bool)
        or not isinstance(check_every, numbers.Integral)
        or check_every < 0
    ):
        raise ValueError(
            f"check_every must be a non-negative integer (0: no checks), got {check_every!r}"
        )
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
            reference_iterations=60,
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
        # the run-to-run bit-identity contract extends to them.
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
