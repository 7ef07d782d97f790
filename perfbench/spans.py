"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark's own files, around the calls into each
layer of the program (spans inside the program are ``repro.obs``, a later
issue).  A span is ``(id, name, start, end, parent, run)``; spans of one
workload iteration share a run id.  Nothing is written until ``dump_jsonl``.

A recorder created with ``enabled=False`` hands out one shared no-op context
manager, so the untraced run executes the same staged body without
recording anything.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed interval; ``parent`` is the id of the span that caused it."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


_NO_SPAN = nullcontext()


class SpanRecorder:
    """Records nested spans with parent links, kept in memory."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.run = 0
        self._clock = clock
        self._stack: List[int] = []

    def span(self, name: str):
        """Context manager timing one call; a no-op when disabled."""
        return self._record(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _record(self, name: str) -> Iterator[Span]:
        span = Span(
            id=len(self.spans),
            name=name,
            start=self._clock(),
            end=float("nan"),
            parent=self._stack[-1] if self._stack else None,
            run=self.run,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    def next_run(self) -> int:
        """Start a new run id (one per workload iteration)."""
        self.run += 1
        return self.run

    # ------------------------------------------------------------------ #
    # Arithmetic over recorded spans
    # ------------------------------------------------------------------ #
    def of_run(self, run: int) -> List[Span]:
        return [span for span in self.spans if span.run == run]

    def total(self, name: str, run: int) -> float:
        """Summed duration of every span called ``name`` in ``run``."""
        return sum(span.duration for span in self.of_run(run) if span.name == name)

    def self_times(self, run: int) -> Dict[str, float]:
        """Per name: span durations minus the time their child spans cover."""
        spans = self.of_run(run)
        covered: Dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        result: Dict[str, float] = {}
        for span in spans:
            own = span.duration - covered.get(span.id, 0.0)
            result[span.name] = result.get(span.name, 0.0) + own
        return result

    def coverage(self, run: int, wall: float) -> float:
        """Share of ``wall`` covered by the run's top-level spans."""
        top = sum(span.duration for span in self.of_run(run) if span.parent is None)
        return top / wall if wall > 0 else 0.0

    def dump_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
