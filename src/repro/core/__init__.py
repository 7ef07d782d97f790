"""Lumos core: tree constructor, workload balancing and tree-based GNN trainer."""

from .config import (
    LumosConfig,
    TrainerConfig,
    TreeConstructorConfig,
    default_config_for,
)
from .constructor import TreeConstructionResult, TreeConstructor
from .embedding_init import EmbeddingInitializationResult, LDPEmbeddingInitializer
from .greedy import greedy_initialization
from .lumos import LumosSupervisedResult, LumosSystem, LumosUnsupervisedResult
from .mcmc import MCMCBalancer, MCMCResult
from .trainer import (
    EpochCostModel,
    LumosModel,
    SupervisedHistory,
    TreeBasedGNNTrainer,
    TreeBatch,
    UnsupervisedHistory,
    roc_auc_from_embeddings,
)
from .workload import Assignment, workload_cdf

__all__ = [
    "LumosConfig",
    "TrainerConfig",
    "TreeConstructorConfig",
    "default_config_for",
    "TreeConstructor",
    "TreeConstructionResult",
    "LDPEmbeddingInitializer",
    "EmbeddingInitializationResult",
    "greedy_initialization",
    "MCMCBalancer",
    "MCMCResult",
    "TreeBasedGNNTrainer",
    "TreeBatch",
    "LumosModel",
    "EpochCostModel",
    "SupervisedHistory",
    "UnsupervisedHistory",
    "roc_auc_from_embeddings",
    "LumosSystem",
    "LumosSupervisedResult",
    "LumosUnsupervisedResult",
    "Assignment",
    "workload_cdf",
]
