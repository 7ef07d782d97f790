"""Zero-dependency tracing + metrics for the whole system (``repro.obs``).

The subsystem has two halves:

* the data model — :class:`Tracer` (hierarchical spans with wall + CPU
  time), :class:`MetricsRegistry` (counters/gauges/histograms),
  :class:`RunTrace` (the run's snapshot) and the
  exporters in :mod:`repro.obs.export` (JSON-lines spans, Chrome
  trace-event JSON for Perfetto, a summary table);
* the *ambient* instrumentation API below — module-level helpers the hot
  layers call unconditionally.  One process has at most one active tracer
  (installed by :func:`tracing` or :func:`set_tracer`); when none is
  active every helper is a near-free no-op.

The invisibility contract (hard invariant, asserted by
``tests/test_observability.py``)
---------------------------------------------------------------------------
Instrumentation must be *bit-for-bit invisible* to the system it observes:

1. it never draws from any RNG and never advances any RNG stream;
2. nothing it records enters a fingerprint, content key, ledger, or
   accountant — observability data flows out of the run, never back in;
3. a run with tracing disabled is byte-identical to a never-instrumented
   build: result payloads (metrics, canonical ledger transcript,
   accountant totals, RNG state) carry no observability fields at all, so
   equality checks over payloads — e.g. the ``faults`` empty-scenario
   contract — are unaffected.  With tracing *enabled* the payloads stay
   identical to the untraced run's; spans and metrics live only in the
   tracer.

Typical use::

    from repro import obs
    from repro.obs import RunTrace, write_chrome_trace

    with obs.tracing() as tracer:
        run_epsilon_sweep("facebook")
    write_chrome_trace(RunTrace.from_tracer(tracer), "sweep-trace.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .export import (
    chrome_trace_events,
    summary_table,
    write_chrome_trace,
    write_spans_jsonl,
)
from .metrics import MetricsRegistry
from .runtrace import RunTrace
from .tracer import Tracer

__all__ = [
    "MetricsRegistry",
    "RunTrace",
    "Tracer",
    "add_counter",
    "chrome_trace_events",
    "current_tracer",
    "observe",
    "set_gauge",
    "set_tracer",
    "span",
    "summary_table",
    "tracing",
    "write_chrome_trace",
    "write_spans_jsonl",
]

#: The process-wide active tracer; ``None`` means tracing is disabled and
#: every ambient helper below short-circuits.
_tracer: Optional[Tracer] = None


class _NullSpan:
    """Stateless, reusable no-op context manager for the disabled path.

    Mimics the span-record dict enough for call sites that annotate spans
    (``with obs.span(...) as s: s["attributes"][...] = ...``) to run
    unchanged; writes go nowhere.
    """

    __slots__ = ()

    def __enter__(self):
        return {"attributes": {}}

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def current_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with ``None``, disable) the process-wide tracer.

    Returns the previously active tracer so callers can restore it; prefer
    the :func:`tracing` context manager, which does that automatically.
    """
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Activate a tracer for the duration of the block; yields it.

    A fresh :class:`Tracer` is created unless one is passed in.  The
    previously active tracer (usually ``None``) is restored on exit, so
    nested/temporary tracing cannot leak into unrelated code.
    """
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)


def span(name: str, **attributes):
    """Context manager for one span on the active tracer (no-op when off)."""
    if _tracer is None:
        return _NULL_SPAN
    return _tracer.span(name, **attributes)


def add_counter(name: str, value: float = 1.0) -> None:
    """Increment a counter on the active tracer's metrics (no-op when off)."""
    if _tracer is not None:
        _tracer.metrics.add_counter(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active tracer's metrics (no-op when off)."""
    if _tracer is not None:
        _tracer.metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op when off)."""
    if _tracer is not None:
        _tracer.metrics.observe(name, value)
