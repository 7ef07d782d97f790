"""Parallel execution runtime: a multi-process scheduler over the engine.

The engine (:mod:`repro.engine`) made the expensive pipeline phases
content-keyed and replayable; this package makes them *schedulable*.
Independent engine invocations — epsilon-sweep points, ablation arms,
baseline comparisons, figure grids — become picklable
:class:`~repro.runtime.items.WorkItem` objects collected in a deduplicating
:class:`~repro.runtime.plan.WorkPlan`; an
:class:`~repro.runtime.executor.Executor` then runs the plan either inline
(:class:`~repro.runtime.executor.SerialExecutor`) or across a worker pool
(:class:`~repro.runtime.executor.ProcessExecutor`) that computes the shared
pipeline prefix once, hands it to workers through a
:class:`~repro.engine.store.DiskSpillStore`, retries crashed or timed-out
items, and merges results deterministically — bit-for-bit identical to the
serial path.  Every :mod:`repro.eval.runner` entry point is such a plan,
run on the ``Executor`` instance passed as ``executor=`` (default: a
``SerialExecutor`` over the process-wide store).  ``docs/architecture.md``
§8 describes the contracts.
"""

from .channel import (
    ChannelClosed,
    ChannelError,
    ChannelStats,
    ChannelTimeout,
    FrameCorruption,
    FrameKind,
    PartyChannel,
    channel_pair,
)
from .executor import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_STORE_BYTES,
    Executor,
    FailedAttempt,
    ItemRecord,
    ProcessExecutor,
    RuntimeReport,
    SerialExecutor,
    WorkItemFailure,
    backoff_delay,
)
from .items import (
    BaselineItem,
    CallableItem,
    GraphSpec,
    LumosItem,
    WorkItem,
)
from .plan import WarmupRun, WorkPlan, shared_prefix_plan
from .worker import ChaosConfig, chaos_action

__all__ = [
    "BaselineItem",
    "CallableItem",
    "ChannelClosed",
    "ChannelError",
    "ChannelStats",
    "ChannelTimeout",
    "ChaosConfig",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_STORE_BYTES",
    "Executor",
    "FailedAttempt",
    "FrameCorruption",
    "FrameKind",
    "GraphSpec",
    "ItemRecord",
    "LumosItem",
    "PartyChannel",
    "ProcessExecutor",
    "RuntimeReport",
    "SerialExecutor",
    "WarmupRun",
    "WorkItem",
    "WorkItemFailure",
    "WorkPlan",
    "backoff_delay",
    "channel_pair",
    "chaos_action",
    "shared_prefix_plan",
]
