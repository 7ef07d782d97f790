"""Work plans: dedupe by content key.

A :class:`WorkPlan` is an *ordered multiset* of
:class:`~repro.runtime.items.WorkItem` requests with two invariants:

* **dedupe** — requests whose content keys collide map to one item: the
  work runs once and every requester reads the same value back.  (This is
  the work-item analogue of the engine store's content keys.)
* **deterministic merge order** — ``requests`` preserves the order items
  were added in, so a caller can reassemble its result structure (a sweep
  dict, a figure table) identically on every run.

:func:`repro.eval.runner._run_plan` runs a plan: a loop over
:meth:`WorkPlan.unique_items` against one artifact store.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

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
