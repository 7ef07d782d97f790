"""The Lumos pipeline stages.

Each stage wraps one expensive phase of the Lumos pipeline and knows three
things:

* ``key(context)`` — a content-derived cache key (inputs that change the
  stage's output are part of the key; nothing else is);
* ``compute(context)`` — run the phase for real, mutating the context's
  environment / RNG exactly like the eager pipeline did;
* ``replay(context, value)`` — re-install a cached result into a fresh
  context cheaply (apply the assignment, store received features, ...).

The surrounding :class:`~repro.engine.pipeline.Pipeline` takes care of the
parts every stage shares: RNG state capture/restore and communication-ledger
delta capture/replay, which together make a cache hit observably identical
to a cold computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from ..federation.simulator import FederatedEnvironment
from ..graph.graph import Graph, partition_node_level
from .fingerprint import fingerprint_graph, fingerprint_value, stage_key

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..core.config import LumosConfig

# NOTE: repro.core is imported lazily inside the stage methods — the core
# package itself wires LumosSystem through this engine, so a module-level
# import here would be circular.


@dataclass
class PipelineContext:
    """Mutable state threaded through one pipeline run.

    ``rng`` is the single shared random stream of the deployment (the same
    discipline as the eager pipeline: construction, LDP initialisation and
    training consume it in order).  ``artifacts`` and ``keys`` collect each
    completed stage's value and cache key.
    """

    graph: Graph
    config: "LumosConfig"
    rng: np.random.Generator
    environment: Optional[FederatedEnvironment] = None
    artifacts: Dict[str, Any] = field(default_factory=dict)
    keys: Dict[str, str] = field(default_factory=dict)


class Stage:
    """One cacheable phase of the pipeline."""

    name: str = "stage"

    def key(self, context: PipelineContext) -> str:
        raise NotImplementedError

    def compute(self, context: PipelineContext) -> Any:
        raise NotImplementedError

    def replay(self, context: PipelineContext, value: Any) -> Any:
        """Install a cached ``value`` into ``context``.

        May return a replacement value derived from the cached one for this
        run (e.g. the tree batch re-bound to the current LDP exchange);
        returning ``None`` keeps the cached value.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class PartitionStage(Stage):
    """Node-level partition of the global graph: its read-only neighbour CSR
    and feature matrix (:func:`~repro.graph.graph.partition_node_level`).

    The partition depends only on the graph.  Its arrays are never written,
    so every system of a sweep shares them; each run gets a fresh federated
    environment over them (its own ledger, random streams and installed
    selection) on both the compute and the replay path.
    """

    name = "partition"

    def key(self, context: PipelineContext) -> str:
        return stage_key(
            "partition",
            fingerprint_graph(context.graph),
            f"seed={context.config.seed}",
        )

    def compute(self, context: PipelineContext) -> Any:
        partition = partition_node_level(context.graph)
        self.replay(context, partition)
        return partition

    def replay(self, context: PipelineContext, value: Any) -> None:
        context.environment = FederatedEnvironment.from_partition(
            value, seed=context.config.seed
        )


class TreeConstructionStage(Stage):
    """Heterogeneity-aware tree construction (greedy + MCMC balancing)."""

    name = "construction"

    def key(self, context: PipelineContext) -> str:
        return stage_key(
            "construction",
            context.keys["partition"],
            fingerprint_value(context.config.constructor),
        )

    def compute(self, context: PipelineContext) -> Any:
        from ..core.constructor import TreeConstructor

        constructor = TreeConstructor(context.config.constructor, rng=context.rng)
        return constructor.construct(context.environment)

    def replay(self, context: PipelineContext, value: Any) -> None:
        context.environment.apply_assignment(value.assignment.kept)


class LDPDrawsStage(Stage):
    """Epsilon-independent randomness of the LDP feature exchange.

    The 1-bit mechanism's bin partitions and uniform draws depend only on
    the construction (who sends to whom, with what workload) and on the RNG
    stream — not on epsilon.  Splitting them out makes an epsilon sweep pay
    the draws once; the per-point ``ldp_init`` stage is a cheap threshold.
    """

    name = "ldp_draws"

    def key(self, context: PipelineContext) -> str:
        return stage_key("ldpdraws", context.keys["construction"])

    def compute(self, context: PipelineContext) -> Any:
        from ..core.embedding_init import LDPEmbeddingInitializer
        from ..crypto.ldp import FeatureBounds

        initializer = LDPEmbeddingInitializer(
            epsilon=context.config.trainer.epsilon,
            bounds=FeatureBounds(0.0, 1.0),
            rng=context.rng,
        )
        return initializer.draw(
            context.environment, context.artifacts["construction"].assignment
        )


class EmbeddingInitStage(Stage):
    """LDP feature exchange: thresholds the shared draws for one epsilon."""

    name = "ldp_init"

    def key(self, context: PipelineContext) -> str:
        return stage_key(
            "ldp",
            context.keys["ldp_draws"],
            f"epsilon={float(context.config.trainer.epsilon)!r}",
        )

    def compute(self, context: PipelineContext) -> Any:
        from ..core.embedding_init import LDPEmbeddingInitializer
        from ..crypto.ldp import FeatureBounds

        initializer = LDPEmbeddingInitializer(
            epsilon=context.config.trainer.epsilon,
            bounds=FeatureBounds(0.0, 1.0),
            rng=context.rng,
        )
        return initializer.threshold(
            context.environment, context.artifacts["ldp_draws"]
        )


class TreeBatchStage(Stage):
    """Assembly of the block-diagonal union graph the trainer runs on.

    Keyed on the construction and the feature dimension — the LDP features
    enter the batch as a plain row-fill, so across an epsilon sweep the
    cached structure is re-bound to the current point's exchange on replay
    instead of being reassembled (``TreeBatch.with_initialization``).
    """

    name = "tree_batch"

    def key(self, context: PipelineContext) -> str:
        return stage_key(
            "batch",
            context.keys["construction"],
            f"d={context.graph.num_features}",
        )

    def compute(self, context: PipelineContext) -> Any:
        from ..core.trainer import TreeBatch

        batch = TreeBatch.build(
            context.environment,
            context.artifacts["construction"],
            context.artifacts["ldp_init"],
            context.graph.num_features,
        )
        # Prewarm the pooling operators on the cached artifact: every sweep
        # point re-bound via with_initialization shares them (fold_chain runs
        # once per construction, not once per epsilon; the GAT edge plan is
        # kept once per pooled edge index).
        batch.folded_pool_adjacency()
        batch.pool_row_sums()
        if context.config.trainer.backbone == "gat":
            batch.pooled_edge_index()
        return batch

    def replay(self, context: PipelineContext, value: Any) -> Any:
        return value.with_initialization(context.artifacts["ldp_init"])


def lumos_stages() -> list:
    """The canonical stage sequence of a Lumos deployment."""
    return [
        PartitionStage(),
        TreeConstructionStage(),
        LDPDrawsStage(),
        EmbeddingInitStage(),
        TreeBatchStage(),
    ]
