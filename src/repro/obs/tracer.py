"""Hierarchical span tracer with wall + CPU time and attached metrics.

A :class:`Tracer` records *spans* — named, nested intervals with wall-clock
and process-CPU durations plus free-form attributes — and owns one
:class:`~repro.obs.metrics.MetricsRegistry`.  Spans open and close through
the context manager returned by :meth:`Tracer.span`; nesting is tracked by a
per-tracer stack, so the span tree mirrors the call tree without any
thread-local machinery (the repro runs one logical task per process).

Timestamps are *epoch-anchored monotonics*: the tracer captures
``time.time() - time.perf_counter()`` once at construction and every span
start is ``anchor + perf_counter()``.  Durations therefore come from the
monotonic clock (immune to NTP jumps) while start times land on an
absolute axis the Chrome trace export can use as-is.

Everything a tracer accumulates is plain dicts of str/float, so
:meth:`snapshot` is picklable and exporters read it as data (see
:class:`~repro.obs.runtrace.RunTrace`).

The tracer is an *observer only*: it never draws RNG, never touches a
fingerprint or cache key, and no compute path reads its state.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List

from .metrics import MetricsRegistry

__all__ = ["Tracer"]


class Tracer:
    """Collects spans and metrics for one process's share of a run."""

    def __init__(self, process: str = "main") -> None:
        self.process = process
        self.metrics = MetricsRegistry()
        #: Finished spans (completion order), each a plain dict with keys
        #: ``id`` / ``parent`` / ``name`` / ``start`` (epoch seconds) /
        #: ``wall`` / ``cpu`` (seconds) / ``attributes``.
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []  # open span ids, innermost last
        self._next_id = 0
        # Epoch anchor: absolute timestamps from the monotonic clock.
        self._anchor = time.time() - time.perf_counter()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, **attributes):
        """Open a span; yields a dict whose ``attributes`` may be extended."""
        span_id = self._next_id
        self._next_id += 1
        record: Dict[str, Any] = {
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "attributes": dict(attributes),
        }
        self._stack.append(span_id)
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        record["start"] = self._anchor + wall_start
        try:
            yield record
        finally:
            record["wall"] = time.perf_counter() - wall_start
            record["cpu"] = time.process_time() - cpu_start
            self._stack.pop()
            self.spans.append(record)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """This process's spans and metrics as one picklable dictionary."""
        return {
            "process": self.process,
            "spans": list(self.spans),
            "metrics": self.metrics.snapshot(),
        }
