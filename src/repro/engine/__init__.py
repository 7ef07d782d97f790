"""The artifact engine: a content-keyed store and the fingerprints its keys use.

The stages themselves are methods of :class:`~repro.core.lumos.LumosSystem`,
which looks each one up here before computing it (``LumosSystem._cached``).
See ``docs/architecture.md`` for the stage graph, the key-derivation rules
and the replay semantics that make cache hits bit-for-bit identical to cold
runs.
"""

from .fingerprint import fingerprint_graph, fingerprint_value, stage_key
from .store import (
    ArtifactStore,
    DiskSpillStore,
    StageStats,
    StoredArtifact,
)

__all__ = [
    "ArtifactStore",
    "DiskSpillStore",
    "StageStats",
    "StoredArtifact",
    "fingerprint_graph",
    "fingerprint_value",
    "stage_key",
]
