"""The whole-run view the exporters consume.

A :class:`RunTrace` is a flat, ordered list of process snapshots (one per
:class:`~repro.obs.tracer.Tracer`, the ``main`` process first).  It is the
unit the exporters in :mod:`repro.obs.export` consume and the object the
``--trace`` CLI knobs hand to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["RunTrace"]


@dataclass
class RunTrace:
    """Ordered process snapshots of one run (main first)."""

    snapshots: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "RunTrace":
        """The trace of one tracer's run."""
        return cls(snapshots=[tracer.snapshot()])

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def processes(self) -> List[str]:
        """Distinct process names in first-appearance order."""
        seen: List[str] = []
        for snapshot in self.snapshots:
            name = snapshot.get("process", "main")
            if name not in seen:
                seen.append(name)
        return seen

    def spans(self) -> List[Dict[str, Any]]:
        """Every span of every snapshot, tagged with its process name."""
        collected: List[Dict[str, Any]] = []
        for snapshot in self.snapshots:
            process = snapshot.get("process", "main")
            for span in snapshot.get("spans", ()):
                collected.append({**span, "process": process})
        return collected

    def merged_metrics(self) -> Dict[str, dict]:
        """One metrics snapshot over all processes (counters/histograms sum,
        gauges take the last process's value in snapshot order)."""
        registry = MetricsRegistry()
        for snapshot in self.snapshots:
            registry.merge(snapshot.get("metrics"))
        return registry.snapshot()
