"""Identity-keyed memoisation shared by the fast paths.

Several hot paths cache derived objects against an *immutable-by-convention*
anchor object (a sparse matrix, an index array, a graph): prepared CSR
matrices, segment-aggregation matrices, graph fingerprints, normalized
graphs.  They all need the same subtle bookkeeping — key on ``id(anchor)``,
guard against id reuse with a weak reference, evict when the anchor is
collected — so the pattern lives here exactly once.

``None`` is not a cacheable value (it is the miss sentinel); no current user
caches ``None``.

**A cached value must not reference its anchor.**  The cache holds the value
strongly and the anchor weakly; a value that points back at its anchor keeps
it alive, the weak-reference callback never fires and the entry is immortal.
A value derived from the anchor may share its *arrays*, never the object.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Hashable, Optional, Tuple


class IdentityCache:
    """Cache keyed by anchor-object identity (plus an optional extra key).

    Entries hold a weak reference to their anchor: a lookup only hits when
    the weakly referenced object *is* the anchor passed in (so a recycled
    ``id()`` can never alias), and entries are evicted automatically when
    the anchor is garbage collected.  Anchors that do not support weak
    references are kept alive by the cache instead (rare; e.g. exotic
    array subclasses).
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, Hashable], Tuple[Any, Any]] = {}

    def get(self, anchor: Any, extra: Hashable = None) -> Optional[Any]:
        """Return the cached value for ``anchor`` (and ``extra``) or None."""
        key = (id(anchor), extra)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is anchor:
            return entry[1]
        return None

    def put(self, anchor: Any, value: Any, extra: Hashable = None) -> Any:
        """Store ``value`` under ``anchor`` (and ``extra``); returns ``value``."""
        key = (id(anchor), extra)
        try:
            ref = weakref.ref(anchor, lambda _ref, _key=key: self._entries.pop(_key, None))
        except TypeError:
            ref = _strong_ref(anchor)
        self._entries[key] = (ref, value)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


def _strong_ref(anchor: Any):
    """A callable mimicking ``weakref.ref`` that pins ``anchor`` alive."""
    return lambda: anchor
