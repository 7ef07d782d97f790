"""Self-healing tree maintenance under churn.

The maintenance layer turns the fault layer's compiled churn schedules into
*real tree mutations* — journalled delta operations on a constructed tree —
instead of availability masks, with crash-safe recovery and bounded
staleness:

* :mod:`~repro.maintenance.journal` — append-only, fsync'd, checksummed
  :class:`MutationJournal` with torn-tail-tolerant recovery;
* :mod:`~repro.maintenance.tree` — :class:`MaintainedTree` delta operations
  (``insert_device`` / ``remove_device`` / ``update_degree`` /
  ``rebalance`` / ``rebuild``) with write-ahead journaling and atomic
  versioned snapshots through the artifact store;
* :mod:`~repro.maintenance.monitor` — :class:`StalenessMonitor` comparing
  the maintained tree against a from-scratch reconstruction and triggering
  localized rebalance or a full rebuild past configured bounds;
* :mod:`~repro.maintenance.churn` — a :class:`~repro.faults.FaultPlan`'s
  churn driving a maintained tree: the deterministic metrics entry point
  behind ``run_churn_maintenance``.
"""

from .churn import churn_maintenance_metrics
from .journal import MutationJournal, read_records
from .monitor import StalenessMonitor, StalenessReport
from .tree import MaintainedTree, MaintenanceConfig, fresh_assignment

__all__ = [
    "MutationJournal",
    "read_records",
    "MaintainedTree",
    "MaintenanceConfig",
    "fresh_assignment",
    "StalenessMonitor",
    "StalenessReport",
    "churn_maintenance_metrics",
]
