"""High-level Lumos system API.

:class:`LumosSystem` wires the full pipeline together for a given global
graph: node-level partition, federated environment, heterogeneity-aware tree
construction, LDP embedding initialisation and tree-based GNN training.  This
is the class the examples, the ``perfbench`` workloads and the work items
of the evaluation harness use.

Typical usage::

    graph = load_dataset("facebook")
    config = default_config_for("facebook").with_backbone("gcn")
    system = LumosSystem(graph, config)
    result = system.run_supervised(split_nodes(graph, seed=0), epochs=100)
    print(result.test_accuracy)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..caching import IdentityCache

from ..engine.pipeline import build_lumos_pipeline
from ..engine.stages import PipelineContext
from ..engine.store import ArtifactStore, default_store
from ..graph.graph import Graph
from ..graph.splits import EdgeSplit, NodeSplit
from .config import LumosConfig
from .constructor import TreeConstructionResult
from .embedding_init import EmbeddingInitializationResult
from .trainer import (
    EpochCostModel,
    LumosModel,
    SupervisedHistory,
    TreeBasedGNNTrainer,
    TreeBatch,
    UnsupervisedHistory,
)


# Memo of graph -> normalized graph.  Sweeps construct many LumosSystems
# over one graph; sharing the normalized instance amortizes the
# normalization *and* lets the engine's per-object graph-fingerprint memo
# hit across sweep points.
_normalized_graphs = IdentityCache()


def normalized_graph(graph: Graph) -> Graph:
    """The per-process normalized twin of ``graph`` (memoised by identity).

    Public because the parallel runtime plans stage keys over the *same*
    normalized instance a ``LumosSystem`` would train on — sharing the memo
    keeps the graph-fingerprint cache hot across planner and systems.
    """
    normalized = _normalized_graphs.get(graph)
    if normalized is None:
        normalized = _normalized_graphs.put(graph, graph.normalized_features(0.0, 1.0))
    return normalized


@dataclass
class LumosSupervisedResult:
    """Outcome of a supervised (node classification) Lumos run."""

    test_accuracy: float
    best_val_accuracy: float
    history: SupervisedHistory
    construction: TreeConstructionResult
    communication_rounds_per_device: float
    simulated_epoch_time: float
    ledger_summary: Dict[str, float] = field(default_factory=dict)
    #: Participation/degradation counters when the run trained under a
    #: non-empty fault scenario; ``None`` on the fully-available path.
    fault_summary: Optional[Dict[str, float]] = None


@dataclass
class LumosUnsupervisedResult:
    """Outcome of an unsupervised (link prediction) Lumos run."""

    test_auc: float
    best_val_auc: float
    history: UnsupervisedHistory
    construction: TreeConstructionResult
    communication_rounds_per_device: float
    simulated_epoch_time: float
    ledger_summary: Dict[str, float] = field(default_factory=dict)


class LumosSystem:
    """End-to-end Lumos deployment over one global graph.

    The expensive pipeline phases (node-level partition, tree construction,
    LDP embedding initialisation, union-graph assembly) run through the
    staged execution engine (:mod:`repro.engine`): each stage's result is
    stored in a content-keyed :class:`~repro.engine.store.ArtifactStore` and
    reused by any later system whose inputs match — e.g. an epsilon sweep
    re-runs only the LDP exchange onwards, a backbone sweep only the
    training.  Pass ``store=`` to isolate a system from the process-wide
    default store.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[LumosConfig] = None,
        cost_model: Optional[EpochCostModel] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.graph = normalized_graph(graph)
        self.config = config if config is not None else LumosConfig()
        self.cost_model = cost_model if cost_model is not None else EpochCostModel()
        self.rng = np.random.default_rng(self.config.seed)

        self.store = store if store is not None else default_store()
        self.pipeline = build_lumos_pipeline(self.store)
        self._context = PipelineContext(graph=self.graph, config=self.config, rng=self.rng)
        self.pipeline.run(self._context, through="partition")
        self.environment = self._context.environment
        self._trainer: Optional[TreeBasedGNNTrainer] = None

    # ------------------------------------------------------------------ #
    # Pipeline stages (lazily executed, cached and shared via the store)
    # ------------------------------------------------------------------ #
    def _stage(self, name: str):
        return self.pipeline.run(self._context, through=name).artifacts[name]

    def advance(self, through: str):
        """Run the pipeline up to and including stage ``through`` (cached).

        Returns that stage's artifact.
        """
        return self._stage(through)

    def construct_trees(self) -> TreeConstructionResult:
        """Run the heterogeneity-aware tree constructor (cached)."""
        return self._stage("construction")

    def initialize_embeddings(self) -> EmbeddingInitializationResult:
        """Run the LDP feature exchange (cached)."""
        return self._stage("ldp_init")

    def tree_batch(self) -> TreeBatch:
        """Assemble (or fetch) the block-diagonal union graph."""
        return self._stage("tree_batch")

    def trainer(self) -> TreeBasedGNNTrainer:
        """Build (and cache) the tree-based GNN trainer."""
        if self._trainer is None:
            construction = self.construct_trees()
            initialization = self.initialize_embeddings()
            batch = self.tree_batch()
            self._trainer = TreeBasedGNNTrainer(
                self.environment,
                construction,
                initialization,
                self.config.trainer,
                rng=self.rng,
                cost_model=self.cost_model,
                batch=batch,
                faults=self.config.faults,
            )
        return self._trainer

    def engine_stats(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss counters of the artifact store backing this system."""
        return self.store.summary()

    # ------------------------------------------------------------------ #
    # End-to-end runs
    # ------------------------------------------------------------------ #
    def run_supervised(
        self,
        split: NodeSplit,
        epochs: Optional[int] = None,
    ) -> LumosSupervisedResult:
        """Train and evaluate the supervised node-classification task."""
        if self.graph.labels is None:
            raise ValueError("supervised training requires a labeled graph")
        trainer = self.trainer()
        _, history = trainer.train_supervised(self.graph.labels, split, epochs=epochs)
        profile = trainer.communication_profile("supervised")
        return LumosSupervisedResult(
            test_accuracy=history.test_accuracy,
            best_val_accuracy=history.best_val_accuracy,
            history=history,
            construction=self.construct_trees(),
            communication_rounds_per_device=float(profile["per_device_rounds"].mean()),
            simulated_epoch_time=trainer.simulated_epoch_time("supervised"),
            ledger_summary=self.environment.ledger.summary(self.environment.num_devices),
            fault_summary=trainer.fault_stats if trainer.faults is not None else None,
        )

    def run_unsupervised(
        self,
        edge_split: EdgeSplit,
        epochs: Optional[int] = None,
    ) -> LumosUnsupervisedResult:
        """Train and evaluate the unsupervised link-prediction task."""
        trainer = self.trainer()
        _, history = trainer.train_unsupervised(edge_split, epochs=epochs)
        profile = trainer.communication_profile("unsupervised")
        return LumosUnsupervisedResult(
            test_auc=history.test_auc,
            best_val_auc=history.best_val_auc,
            history=history,
            construction=self.construct_trees(),
            communication_rounds_per_device=float(profile["per_device_rounds"].mean()),
            simulated_epoch_time=trainer.simulated_epoch_time("unsupervised"),
            ledger_summary=self.environment.ledger.summary(self.environment.num_devices),
        )

    # ------------------------------------------------------------------ #
    # System-side inspection helpers (used by Fig. 7 / Fig. 8)
    # ------------------------------------------------------------------ #
    def workload_distribution(self) -> np.ndarray:
        """Per-device workloads after tree construction."""
        return self.construct_trees().workload_array()

    def summary(self) -> Dict[str, float]:
        """Headline system statistics."""
        construction = self.construct_trees()
        result = {
            "num_devices": float(self.environment.num_devices),
            "max_workload": float(construction.max_workload()),
            "total_tree_nodes": float(construction.total_tree_nodes()),
            "secure_comparison_bits": float(construction.transcript.bits),
            "secure_comparisons": float(construction.transcript.comparisons),
        }
        result.update(self.environment.ledger.summary(self.environment.num_devices))
        return result

