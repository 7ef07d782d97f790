"""Trace exporters: JSON-lines spans, Chrome trace events, summary table.

Three consumers of a :class:`~repro.obs.runtrace.RunTrace`:

* :func:`write_spans_jsonl` — one JSON object per span per line; greppable,
  streamable, and the format most log pipelines ingest directly.
* :func:`chrome_trace_events` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON object format (``{"traceEvents": [...]}``), loadable in
  ``chrome://tracing`` and Perfetto (https://ui.perfetto.dev).  One thread
  track per process snapshot of the trace, with complete (``ph: "X"``)
  events whose wall durations are the span lengths and whose args carry
  the CPU time and the span attributes.
* :func:`summary_table` — a human-readable roll-up (per-span-name call
  counts and total wall/CPU, then the merged counters) for terminals.

Everything here is stdlib-only and pure (no clock reads, no I/O except the
two ``write_*`` helpers), so exports are reproducible from a stored trace.
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
    "write_spans_jsonl",
]

#: Single logical process id of the whole run in the Chrome export; tracks
#: are separated by tid (one per process snapshot), so every snapshot of a
#: trace lands under one timeline.
_CHROME_PID = 1


def write_spans_jsonl(trace: RunTrace, path) -> Path:
    """Write every span as one JSON line; returns the path written."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for span in trace.spans():
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    return path


def chrome_trace_events(trace: RunTrace) -> Dict[str, Any]:
    """The trace as a Chrome trace-event JSON object (Perfetto-loadable)."""
    tids: Dict[str, int] = {}
    for process in trace.processes():
        tids[process] = len(tids) + 1
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _CHROME_PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for process, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _CHROME_PID,
                "tid": tid,
                "args": {"name": process},
            }
        )
    for span in trace.spans():
        events.append(
            {
                "ph": "X",
                "cat": "repro",
                "name": span["name"],
                "pid": _CHROME_PID,
                "tid": tids[span["process"]],
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
    """Human-readable roll-up: spans by name, then the merged counters."""
    by_name: Dict[str, Dict[str, float]] = {}
    for span in trace.spans():
        entry = by_name.setdefault(
            span["name"], {"calls": 0.0, "wall": 0.0, "cpu": 0.0}
        )
        entry["calls"] += 1.0
        entry["wall"] += span.get("wall", 0.0)
        entry["cpu"] += span.get("cpu", 0.0)
    lines = [
        f"trace: {len(trace.spans())} spans across "
        f"{len(trace.processes())} process(es): "
        + ", ".join(trace.processes())
    ]
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
    metrics = trace.merged_metrics()
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
