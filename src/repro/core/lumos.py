"""High-level Lumos system API.

:class:`LumosSystem` wires the full pipeline together for a given global
graph: node-level partition, federated environment, heterogeneity-aware tree
construction, LDP embedding initialisation and tree-based GNN training.  This
is the class the examples, the ``perfbench`` workloads and the experiment
arms of the evaluation harness use.

Typical usage::

    graph = load_dataset("facebook")
    config = default_config_for("facebook").with_backbone("gcn")
    system = LumosSystem(graph, config)
    result = system.run_supervised(split_nodes(graph, seed=0), epochs=100)
    print(result.test_accuracy)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from .. import obs
from ..caching import IdentityCache
from ..crypto.ldp import FeatureBounds
from ..engine.fingerprint import fingerprint_graph, fingerprint_value, stage_key
from ..engine.store import ArtifactStore, StoredArtifact, default_store
from ..federation.simulator import FederatedEnvironment
from ..graph.graph import Graph, partition_node_level
from ..graph.splits import EdgeSplit, NodeSplit
from .config import LumosConfig
from .constructor import TreeConstructionResult, TreeConstructor
from .embedding_init import (
    EmbeddingInitializationResult,
    LDPDrawsResult,
    LDPEmbeddingInitializer,
)
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


def _normalized_graph(graph: Graph) -> Graph:
    """The per-process normalized twin of ``graph`` (memoised by identity)."""
    normalized = _normalized_graphs.get(graph)
    if normalized is None:
        normalized = _normalized_graphs.put(graph, graph.normalized_features(0.0, 1.0))
    return normalized


def artifact_keys(graph: Graph, config: LumosConfig) -> Dict[str, str]:
    """The store key of every stage of a deployment of ``config`` over ``graph``.

    A key holds every input that changes its stage's value and nothing else,
    and chains on the key of the stage it reads (``docs/architecture.md``
    §2): the draws do not see epsilon, the batch sees the construction and
    the feature dimension only, and no key sees the backbone or the fault
    scenario.
    """
    partition = stage_key("partition", fingerprint_graph(graph), f"seed={config.seed}")
    construction = stage_key("construction", partition, fingerprint_value(config.constructor))
    draws = stage_key("ldpdraws", construction)
    return {
        "partition": partition,
        "construction": construction,
        "ldp_draws": draws,
        "ldp_init": stage_key("ldp", draws, f"epsilon={float(config.trainer.epsilon)!r}"),
        "tree_batch": stage_key("batch", construction, f"d={graph.num_features}"),
    }


@dataclass
class LumosSupervisedResult:
    """Outcome of a supervised (node classification) Lumos run."""

    test_accuracy: float
    best_val_accuracy: float
    history: SupervisedHistory
    construction: TreeConstructionResult
    communication_rounds_per_device: float
    simulated_epoch_time: float
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


class LumosSystem:
    """End-to-end Lumos deployment over one global graph.

    The expensive phases — node-level partition, tree construction, the LDP
    draws and their thresholding, union-graph assembly — are methods that
    each run their upstream phase and then one cached step
    (:meth:`_cached`): the result is looked up in a content-keyed
    :class:`~repro.engine.store.ArtifactStore` under :func:`artifact_keys`
    and computed only on a miss, so any later system whose inputs match
    reuses it — e.g. an epsilon sweep re-runs only the thresholding, a
    backbone sweep only the training.  A hit replays the stage's RNG and
    ledger side effects, so it is indistinguishable from a cold run.  Pass
    ``store=`` to isolate a system from the process-wide default store.
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[LumosConfig] = None,
        cost_model: Optional[EpochCostModel] = None,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        self.graph = _normalized_graph(graph)
        self.config = config if config is not None else LumosConfig()
        self.cost_model = cost_model if cost_model is not None else EpochCostModel()
        self.rng = np.random.default_rng(self.config.seed)

        self.store = store if store is not None else default_store()
        self._keys = artifact_keys(self.graph, self.config)
        self._values: Dict[str, Any] = {}
        self.environment: Optional[FederatedEnvironment] = None
        self._partition()
        self._trainer: Optional[TreeBasedGNNTrainer] = None

    # ------------------------------------------------------------------ #
    # Stages (lazily executed, cached and shared via the store)
    # ------------------------------------------------------------------ #
    def _cached(
        self,
        name: str,
        compute: Callable[[], Any],
        replay: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """Stage ``name``'s value: ``compute()`` once per key and store.

        A miss records the RNG state after ``compute`` and the rows the
        ledger gained during it beside the value.  A hit runs ``replay`` on
        the stored value (a non-``None`` result replaces it for this run),
        then restores that RNG state and replays those rows.
        """
        if name in self._values:
            return self._values[name]
        with obs.span(f"engine.stage.{name}") as trace_span:
            key = self._keys[name]
            artifact = self.store.get(key)
            if artifact is not None:
                self.store.record_hit(name)
                trace_span["attributes"]["cache"] = "hit"
                obs.add_counter(f"engine.stage.{name}.hits")
                replayed = replay(artifact.value) if replay is not None else None
                if artifact.rng_state is not None:
                    self.rng.bit_generator.state = artifact.rng_state
                if self.environment is not None and artifact.ledger_delta is not None:
                    self.environment.ledger.replay(artifact.ledger_delta)
                value = artifact.value if replayed is None else replayed
            else:
                self.store.record_miss(name)
                trace_span["attributes"]["cache"] = "miss"
                obs.add_counter(f"engine.stage.{name}.misses")
                mark = self.environment.ledger.mark() if self.environment is not None else None
                value = compute()
                # The partition installs the environment; its delta is the
                # whole (empty) ledger, ``since(None)``.
                environment = self.environment
                delta = environment.ledger.since(mark) if environment is not None else None
                self.store.put(key, StoredArtifact(value, self.rng.bit_generator.state, delta))
        self._values[name] = value
        return value

    def _partition(self) -> tuple:
        """The node-level partition (the graph's read-only CSR and features).

        It depends only on the graph, so every system of a sweep shares its
        arrays; each system installs a fresh environment over them (its own
        ledger, random streams and selection) on a miss and on a hit alike.
        """

        def install(partition: tuple) -> None:
            self.environment = FederatedEnvironment.from_partition(
                partition, seed=self.config.seed
            )

        def compute() -> tuple:
            partition = partition_node_level(self.graph)
            install(partition)
            return partition

        return self._cached("partition", compute, replay=install)

    def construct_trees(self) -> TreeConstructionResult:
        """Run the heterogeneity-aware tree constructor (greedy + MCMC)."""
        return self._cached(
            "construction",
            lambda: TreeConstructor(self.config.constructor, rng=self.rng).construct(
                self.environment
            ),
            replay=lambda construction: self.environment.apply_assignment(
                construction.assignment.kept
            ),
        )

    def _initializer(self) -> LDPEmbeddingInitializer:
        return LDPEmbeddingInitializer(
            epsilon=self.config.trainer.epsilon, bounds=FeatureBounds(0.0, 1.0), rng=self.rng
        )

    def _ldp_draws(self) -> LDPDrawsResult:
        """The epsilon-independent randomness of the LDP feature exchange.

        The 1-bit mechanism's draws depend only on the construction (who
        sends to whom) and on the RNG stream, so an epsilon sweep pays them
        once and each point only thresholds them.
        """
        construction = self.construct_trees()
        return self._cached(
            "ldp_draws",
            lambda: self._initializer().draw(self.environment, construction.assignment),
        )

    def initialize_embeddings(self) -> EmbeddingInitializationResult:
        """Run the LDP feature exchange: threshold the draws for this epsilon."""
        draws = self._ldp_draws()
        return self._cached(
            "ldp_init", lambda: self._initializer().threshold(self.environment, draws)
        )

    def tree_batch(self) -> TreeBatch:
        """Assemble (or fetch) the block-diagonal union graph.

        The LDP features enter the batch as a plain row fill, so a stored
        structure is re-bound to this run's exchange on a hit instead of
        being reassembled (``TreeBatch.with_initialization``).
        """
        construction = self.construct_trees()
        initialization = self.initialize_embeddings()

        def compute() -> TreeBatch:
            batch = TreeBatch.build(
                self.environment, construction, initialization, self.graph.num_features
            )
            # Prewarm the pooling operators on the stored batch: every sweep
            # point re-bound via with_initialization shares them (fold_chain
            # runs once per construction, not once per epsilon; the GAT edge
            # plan is kept once per pooled edge index).
            batch.folded_pool_adjacency()
            batch.pool_row_sums()
            if self.config.trainer.backbone == "gat":
                batch.pooled_edge_index()
            return batch

        return self._cached(
            "tree_batch", compute, replay=lambda batch: batch.with_initialization(initialization)
        )

    def advance(self, through: str):
        """Run the stages up to and including ``through`` (cached); returns
        its value.  An unknown stage name is a ``KeyError``."""
        stages = {
            "partition": self._partition,
            "construction": self.construct_trees,
            "ldp_draws": self._ldp_draws,
            "ldp_init": self.initialize_embeddings,
            "tree_batch": self.tree_batch,
        }
        return stages[through]()

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
        )

    # ------------------------------------------------------------------ #
    # System-side inspection helpers (used by Fig. 7 / Fig. 8)
    # ------------------------------------------------------------------ #
    def workload_distribution(self) -> np.ndarray:
        """Per-device workloads after tree construction."""
        return self.construct_trees().workload_array()
