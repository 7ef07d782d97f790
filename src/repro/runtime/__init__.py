"""Experiment work plans and the two-party transport's framing.

The engine (:mod:`repro.engine`) made the expensive pipeline phases
content-keyed and replayable; this package describes experiments in those
terms.  Independent engine invocations — epsilon-sweep points, ablation
arms, baseline comparisons, figure grids — become content-keyed
:class:`~repro.runtime.items.WorkItem` objects collected in a deduplicating
:class:`~repro.runtime.plan.WorkPlan`.  Every :mod:`repro.eval.runner`
entry point is such a plan, run as a loop over its unique items on one
:class:`~repro.engine.store.ArtifactStore` (``store=``, default: the
process-wide :func:`~repro.engine.default_store`), so arms that share
pipeline stages compute them once.  :mod:`repro.runtime.channel` is the
framed byte channel the two-party secure transport runs over.
``docs/architecture.md`` §8 describes the contracts.
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
from .items import (
    BaselineItem,
    GraphSpec,
    LumosItem,
    WorkItem,
)
from .plan import WorkPlan

__all__ = [
    "BaselineItem",
    "ChannelClosed",
    "ChannelError",
    "ChannelStats",
    "ChannelTimeout",
    "FrameCorruption",
    "FrameKind",
    "GraphSpec",
    "LumosItem",
    "PartyChannel",
    "WorkItem",
    "WorkPlan",
    "channel_pair",
]
