"""Content fingerprints for artifact keys.

Stage keys in the execution engine are *content-derived*: two pipeline runs
that would compute the same value map to the same key, regardless of which
``LumosSystem`` instance (or which process-lifetime order) issues them.  The
helpers here hash the three kinds of content a stage key is built from:

* :class:`~repro.graph.graph.Graph` objects (data),
* (frozen) dataclass configuration objects (hyper-parameters),
* plain python scalars / containers.

Graph fingerprints are memoised per graph object (graphs are immutable value
objects), so sweeps that re-use one graph pay the hashing cost once.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any

import numpy as np

from ..caching import IdentityCache

_graph_cache = IdentityCache()


def _hash_bytes(*parts: bytes) -> str:
    """Hash parts with unambiguous framing (length-prefixed, so that moving
    bytes between adjacent parts always changes the digest)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()[:24]


def _array_parts(array: np.ndarray) -> tuple:
    array = np.ascontiguousarray(array)
    return (str(array.dtype).encode(), repr(array.shape).encode(), array.tobytes())


def fingerprint_value(value: Any) -> str:
    """Fingerprint an arbitrary (config-like) python value."""
    return _hash_bytes(_canonical(value).encode())


def stage_key(*parts: Any) -> str:
    """Join key components into a stage cache key (``/``-separated).

    Keys must contain *every* input that changes the stage's output and
    nothing else — an extra component needlessly busts the cache across
    sweeps (the pre-PR ``tree_batch`` keyed on epsilon was exactly that bug),
    a missing one aliases different results.  Centralising the join keeps the
    separator discipline in one place.
    """
    return "/".join(str(part) for part in parts)


def _canonical(value: Any) -> str:
    """Render ``value`` into a canonical string for hashing."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (np.integer, np.floating)):
        return repr(value.item())
    if is_dataclass(value) and not isinstance(value, type):
        body = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}" for f in fields(value)
        )
        return f"{type(value).__name__}({body})"
    if isinstance(value, dict):
        body = ",".join(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in sorted(value.items(), key=repr)
        )
        return f"{{{body}}}"
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return f"{type(value).__name__}[{','.join(_canonical(v) for v in items)}]"
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


def fingerprint_graph(graph) -> str:
    """Fingerprint a :class:`~repro.graph.graph.Graph` (memoised per object)."""
    cached = _graph_cache.get(graph)
    if cached is not None:
        return cached
    parts = [str(graph.num_nodes).encode()]
    parts.extend(_array_parts(graph.edges))
    parts.extend(_array_parts(graph.features))
    if graph.labels is not None:
        parts.append(b"labels")
        parts.extend(_array_parts(graph.labels))
    return _graph_cache.put(graph, _hash_bytes(*parts))
