"""Deterministic counters, gauges and histograms for the tracing layer.

A :class:`MetricsRegistry` is the numeric half of a
:class:`~repro.obs.tracer.Tracer`: instrumentation hooks in the hot layers
(engine stages, stores, the trainer, the crypto accountant, tree
maintenance) feed it through the ambient helpers in
:mod:`repro.obs`.  Everything is plain python floats in plain dictionaries:

* zero dependencies, picklable, JSON-serialisable as-is;
* :meth:`snapshot` returns sorted-key dictionaries, so two registries fed
  the same events in the same order serialise byte-identically.

The registry records *observations about* a run — it must never feed back
into one.  Nothing here draws RNG, enters a fingerprint, or is consulted by
any compute path; see the invisibility contract in :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Counters (monotonic sums), gauges (last value), histograms (count/
    sum/min/max summaries — enough for latency attribution without buckets)."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def add_counter(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        histogram = self.histograms.get(name)
        if histogram is None:
            self.histograms[name] = {
                "count": 1.0, "sum": value, "min": value, "max": value,
            }
            return
        histogram["count"] += 1.0
        histogram["sum"] += value
        histogram["min"] = min(histogram["min"], value)
        histogram["max"] = max(histogram["max"], value)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, dict]:
        """Plain, sorted, picklable view of every metric."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: dict(summary)
                for name, summary in sorted(self.histograms.items())
            },
        }
