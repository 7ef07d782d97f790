"""Staged execution engine: pipeline, stages and the content-keyed store.

See ``docs/architecture.md`` for the stage graph, the key-derivation rules
and the replay semantics that make cache hits bit-for-bit identical to cold
runs.
"""

from .fingerprint import fingerprint_array, fingerprint_graph, fingerprint_value, stage_key
from .pipeline import Pipeline, build_lumos_pipeline
from .stages import (
    EmbeddingInitStage,
    LDPDrawsStage,
    PartitionStage,
    PipelineContext,
    Stage,
    TreeBatchStage,
    TreeConstructionStage,
    lumos_stages,
)
from .store import (
    ArtifactStore,
    DiskSpillStore,
    StageStats,
    StoredArtifact,
    default_store,
)

__all__ = [
    "ArtifactStore",
    "DiskSpillStore",
    "StageStats",
    "StoredArtifact",
    "default_store",
    "Pipeline",
    "build_lumos_pipeline",
    "PipelineContext",
    "Stage",
    "PartitionStage",
    "TreeConstructionStage",
    "LDPDrawsStage",
    "EmbeddingInitStage",
    "TreeBatchStage",
    "lumos_stages",
    "fingerprint_array",
    "fingerprint_graph",
    "fingerprint_value",
    "stage_key",
]
