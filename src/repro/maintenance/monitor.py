"""Staleness monitoring: delta-maintained tree vs from-scratch reconstruction.

Under sustained churn the delta operations keep the tree *valid* (every edge
covered) but not necessarily *balanced*: the insert heuristic and localized
rebalances drift away from what a full construction would produce.  The
:class:`StalenessMonitor` quantifies that drift — relative objective excess
and simulated epoch-time ratio against a shadow reconstruction — and applies
the degradation policy:

1. within ``staleness_bound``: do nothing (the delta path is winning);
2. above it: a localized :meth:`~MaintainedTree.rebalance` around the
   heaviest device;
3. still above ``rebuild_bound`` afterwards: a full
   :meth:`~MaintainedTree.rebuild` — the last-resort degradation, journalled
   like every other mutation.

The reference construction's seed derives from the tree's mutation chain,
so monitoring is bit-reproducible across live, replayed and recovered runs
without consuming the maintained RNG stream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..core.trainer import EpochCostModel
from .tree import MaintainedTree, fresh_assignment

__all__ = ["StalenessMonitor", "StalenessReport"]


@dataclass(frozen=True)
class StalenessReport:
    """Outcome of one staleness check (all fields deterministic)."""

    round_index: Optional[int]
    maintained_objective: int
    rebuilt_objective: int
    staleness: float
    epoch_time_ratio: float
    action: str  # "none" | "rebalance" | "rebuild"
    post_objective: int
    post_staleness: float


def _staleness(maintained: int, rebuilt: int) -> float:
    """Relative objective excess of the maintained tree over the rebuild."""
    return (maintained - rebuilt) / max(rebuilt, 1)


class StalenessMonitor:
    """Compares a maintained tree against a shadow reconstruction."""

    def __init__(
        self,
        staleness_bound: float = 0.25,
        rebuild_bound: float = 1.0,
        reference_iterations: int = 80,
        rebalance_iterations: Optional[int] = None,
        cost_model: Optional[EpochCostModel] = None,
    ) -> None:
        if staleness_bound < 0 or rebuild_bound < staleness_bound:
            raise ValueError(
                "need 0 <= staleness_bound <= rebuild_bound, got "
                f"{staleness_bound!r} / {rebuild_bound!r}"
            )
        self.staleness_bound = staleness_bound
        self.rebuild_bound = rebuild_bound
        self.reference_iterations = reference_iterations
        self.rebalance_iterations = rebalance_iterations
        self.cost_model = cost_model if cost_model is not None else EpochCostModel()
        self.reports: List[StalenessReport] = []

    def reference_objective(self, tree: MaintainedTree) -> int:
        """Objective of a from-scratch construction over the present devices.

        A *shadow* computation: it consumes neither the tree's RNG nor its
        ledger/accountant (the server estimates, it does not transact), and
        its seed is a pure function of the mutation chain, so every replica
        of the tree prices staleness identically.
        """
        seed = int.from_bytes(
            hashlib.sha256(f"staleness:{tree.chain}".encode("utf-8")).digest()[:4],
            "little",
        )
        lists, _ = fresh_assignment(
            tree.neighbors, self.reference_iterations, seed
        )
        return max(map(len, lists.values()), default=0)

    def check(
        self, tree: MaintainedTree, round_index: Optional[int] = None
    ) -> StalenessReport:
        """Measure staleness and apply the rebalance/rebuild policy."""
        rebuilt = self.reference_objective(tree)
        maintained = tree.objective()
        staleness = _staleness(maintained, rebuilt)
        maintained_workloads = np.array(
            sorted(tree.workloads().values()), dtype=np.float64
        )
        maintained_time = self.cost_model.steady_state_epoch_time(maintained_workloads)
        rebuilt_time = self.cost_model.steady_state_epoch_time(
            np.array([rebuilt], dtype=np.float64)
        )
        epoch_time_ratio = maintained_time / rebuilt_time if rebuilt_time else 1.0

        action = "none"
        post_objective, post_staleness = maintained, staleness
        if staleness > self.staleness_bound and tree.num_devices:
            tree.rebalance(iterations=self.rebalance_iterations)
            action = "rebalance"
            post_objective = tree.objective()
            post_staleness = _staleness(post_objective, rebuilt)
            if post_staleness > self.rebuild_bound:
                tree.rebuild()
                action = "rebuild"
                post_objective = tree.objective()
                post_staleness = _staleness(post_objective, rebuilt)
        report = StalenessReport(
            round_index=round_index,
            maintained_objective=maintained,
            rebuilt_objective=rebuilt,
            staleness=staleness,
            epoch_time_ratio=epoch_time_ratio,
            action=action,
            post_objective=post_objective,
            post_staleness=post_staleness,
        )
        self.reports.append(report)
        obs.add_counter(f"maintenance.escalations.{action}")
        obs.set_gauge("maintenance.staleness", float(post_staleness))
        return report

    def summary(self) -> Dict[str, float]:
        """Deterministic aggregates over every check so far."""
        if not self.reports:
            return {
                "checks": 0.0,
                "max_staleness": 0.0,
                "mean_staleness": 0.0,
                "rebalances": 0.0,
                "rebuilds": 0.0,
                "final_staleness": 0.0,
            }
        staleness = [report.staleness for report in self.reports]
        return {
            "checks": float(len(self.reports)),
            "max_staleness": float(max(staleness)),
            "mean_staleness": float(sum(staleness) / len(staleness)),
            "rebalances": float(
                sum(1 for r in self.reports if r.action in ("rebalance", "rebuild"))
            ),
            "rebuilds": float(sum(1 for r in self.reports if r.action == "rebuild")),
            "final_staleness": float(self.reports[-1].post_staleness),
        }
