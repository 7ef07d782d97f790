"""Work plans: dedupe by content key, shared-prefix scheduling.

A :class:`WorkPlan` is the unit an :class:`~repro.runtime.executor.Executor`
executes.  It is an *ordered multiset* of :class:`~repro.runtime.items.WorkItem`
requests with two invariants:

* **dedupe** — requests whose content keys collide map to one item: the
  work runs once, every requester reads the same
  :class:`~repro.runtime.executor.ItemRecord` back.  (This is the work-item
  analogue of the engine store's content keys.)
* **deterministic merge order** — ``requests`` preserves the order items
  were added in, so a caller can reassemble its result structure (a sweep
  dict, a figure table) identically on every executor.

:func:`shared_prefix_plan` is the scheduling brain: it inspects the engine
stage fingerprints of the pipeline-backed items and picks the minimal set
of *warm-up runs* — one representative per deepest shared stage invocation —
that the executor computes once (into the shared
:class:`~repro.engine.store.DiskSpillStore`) before fanning items out to
workers.  Workers then hydrate those artifacts from disk instead of
recomputing them, which is what turns an epsilon sweep into "construct
once, train everywhere".
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .items import WorkItem


class WorkPlan:
    """Ordered, deduplicating collection of work items."""

    def __init__(self, items: Optional[List[WorkItem]] = None) -> None:
        self._items: "OrderedDict[str, WorkItem]" = OrderedDict()
        self.requests: List[str] = []
        for item in items or []:
            self.add(item)

    def add(self, item: WorkItem) -> str:
        """Register ``item`` and return its content key.

        A key collision with an earlier item dedupes: the earlier item is
        kept (they describe the same computation by construction) and the
        new request simply points at it.
        """
        key = item.key()
        if key not in self._items:
            self._items[key] = item
        self.requests.append(key)
        return key

    def unique_items(self) -> List[WorkItem]:
        """The deduplicated items, in first-request order."""
        return list(self._items.values())

    def __len__(self) -> int:
        return len(self._items)

    @property
    def duplicate_requests(self) -> int:
        """How many requests were deduped away."""
        return len(self.requests) - len(self._items)

    def values(self, records: Dict[str, "object"]) -> List[object]:
        """Per-request values, in request order (merge helper)."""
        return [records[key].value for key in self.requests]


@dataclass(frozen=True)
class WarmupRun:
    """One parent-side prefix computation: run ``item``'s pipeline through
    stage ``through`` and persist the listed stage keys for workers."""

    item: WorkItem
    through: str
    persist_keys: Tuple[str, ...]


def shared_prefix_plan(items: List[WorkItem]) -> List[WarmupRun]:
    """Choose the warm-up runs that cover every shared stage invocation.

    A stage invocation ``(stage name, cache key)`` that appears in the
    chains of two or more items would be computed redundantly by independent
    workers; instead the executor computes it once up front.  Because stage
    keys chain (a stage's key embeds its predecessors'), covering the
    *deepest* shared invocation of a chain covers every shallower one, so a
    greedy deepest-first sweep yields a minimal set of representative runs.

    Items without a stage chain (baselines, callables) take no part.
    """
    chains = [(item, item.stage_chain()) for item in items]
    counts: Counter = Counter()
    for _, chain in chains:
        for pair in chain:
            counts[pair] += 1

    candidates = []  # (depth, item, chain)
    for item, chain in chains:
        depth = -1
        for index, pair in enumerate(chain):
            if counts[pair] >= 2:
                depth = index
        if depth >= 0:
            candidates.append((depth, item, chain))

    # Deepest chains first; ties broken by plan order (stable sort).
    candidates.sort(key=lambda entry: -entry[0])
    covered: set = set()
    runs: List[WarmupRun] = []
    for depth, item, chain in candidates:
        if chain[depth] in covered:
            continue
        runs.append(
            WarmupRun(
                item=item,
                through=chain[depth][0],
                # Persist the whole prefix the run computes: the shared
                # invocations for the fan-out, plus the representative's own
                # per-item stages (free to persist, they are already in the
                # store and one worker will want them).
                persist_keys=tuple(key for _, key in chain[: depth + 1]),
            )
        )
        covered.update(chain[: depth + 1])
    return runs
