"""Trace exporters: Chrome trace events and a summary table.

Two consumers of a :class:`~repro.obs.runtrace.RunTrace`:

* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON object format (``{"traceEvents": [...]}``), loadable in
  ``chrome://tracing`` and Perfetto (https://ui.perfetto.dev).  One
  ``main`` thread track, with complete (``ph: "X"``) events whose wall
  durations are the span lengths and whose args carry the CPU time and the
  span attributes.
* :func:`summary_table` — a human-readable roll-up (per-span-name call
  counts and total wall/CPU, then the metrics) for terminals.

Everything here is stdlib-only and pure (no clock reads, no I/O except
:func:`write_chrome_trace`), so exports are reproducible from a stored trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .runtrace import RunTrace

__all__ = [
    "chrome_trace_events",
    "summary_table",
    "write_chrome_trace",
]

#: Process and thread id of the run's one track in the Chrome export.
_CHROME_PID = 1
_CHROME_TID = 1


def chrome_trace_events(trace: RunTrace) -> Dict[str, Any]:
    """The trace as a Chrome trace-event JSON object (Perfetto-loadable)."""
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _CHROME_PID,
            "tid": 0,
            "args": {"name": "repro"},
        },
        {
            "ph": "M",
            "name": "thread_name",
            "pid": _CHROME_PID,
            "tid": _CHROME_TID,
            "args": {"name": "main"},
        },
    ]
    for span in trace.spans():
        events.append(
            {
                "ph": "X",
                "cat": "repro",
                "name": span["name"],
                "pid": _CHROME_PID,
                "tid": _CHROME_TID,
                # Trace-event timestamps/durations are microseconds.
                "ts": span["start"] * 1e6,
                "dur": span.get("wall", 0.0) * 1e6,
                "args": {
                    **span.get("attributes", {}),
                    "cpu_seconds": span.get("cpu", 0.0),
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(trace: RunTrace, path) -> Path:
    """Write the Chrome trace-event JSON to ``path``; returns the path."""
    path = Path(path)
    payload = chrome_trace_events(trace)
    # allow_nan=False: a NaN would render the file unloadable in Perfetto —
    # fail at export time instead of at view time.
    path.write_text(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    return path


def summary_table(trace: RunTrace) -> str:
    """Human-readable roll-up: spans by name, then the metrics."""
    by_name: Dict[str, Dict[str, float]] = {}
    for span in trace.spans():
        entry = by_name.setdefault(
            span["name"], {"calls": 0.0, "wall": 0.0, "cpu": 0.0}
        )
        entry["calls"] += 1.0
        entry["wall"] += span.get("wall", 0.0)
        entry["cpu"] += span.get("cpu", 0.0)
    lines = [f"trace: {len(trace.spans())} spans"]
    if by_name:
        width = max(len(name) for name in by_name)
        lines.append(f"{'span':<{width}}  {'calls':>6}  {'wall s':>10}  {'cpu s':>10}")
        for name, entry in sorted(
            by_name.items(), key=lambda item: -item[1]["wall"]
        ):
            lines.append(
                f"{name:<{width}}  {int(entry['calls']):>6}  "
                f"{entry['wall']:>10.4f}  {entry['cpu']:>10.4f}"
            )
    metrics = trace.metrics()
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            rendered = f"{int(value)}" if value == int(value) else f"{value:.6g}"
            lines.append(f"  {name:<{width}}  {rendered}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{width}}  {value:.6g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("histograms (count/sum/min/max):")
        for name, summary in histograms.items():
            lines.append(
                f"  {name}  {int(summary['count'])} / {summary['sum']:.6g} / "
                f"{summary['min']:.6g} / {summary['max']:.6g}"
            )
    return "\n".join(lines)
