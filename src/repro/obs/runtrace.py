"""The whole-run view the exporters consume.

A :class:`RunTrace` is the snapshot of the run's one
:class:`~repro.obs.tracer.Tracer`: its spans and its metrics.  It is the
unit the exporters in :mod:`repro.obs.export` consume and the object the
``--trace`` CLI knobs hand to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from .tracer import Tracer

__all__ = ["RunTrace"]


@dataclass
class RunTrace:
    """The spans and metrics of one traced run."""

    snapshot: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "RunTrace":
        """The trace of one tracer's run."""
        return cls(snapshot=tracer.snapshot())

    def spans(self) -> List[Dict[str, Any]]:
        """Every span, in completion order."""
        return list(self.snapshot.get("spans", ()))

    def metrics(self) -> Dict[str, dict]:
        """The run's counters, gauges and histograms."""
        return self.snapshot.get("metrics", {})
