"""GNN layers (GCN, GAT), encoders, task heads, pooling and link-prediction helpers."""

from .gat import GATLayer
from .gcn import GCNLayer
from .link_prediction import (
    link_prediction_objective,
    negative_sampler,
    roc_auc_from_embeddings,
)
from .models import (
    EncoderConfig,
    GNNEncoder,
    GraphInput,
    LinkPredictor,
    NodeClassifier,
    build_edge_index,
)
from .pooling import POOLING_FUNCTIONS, get_pooling, max_pool, mean_pool, sum_pool

__all__ = [
    "GCNLayer",
    "GATLayer",
    "EncoderConfig",
    "GraphInput",
    "GNNEncoder",
    "NodeClassifier",
    "LinkPredictor",
    "build_edge_index",
    "negative_sampler",
    "link_prediction_objective",
    "roc_auc_from_embeddings",
    "mean_pool",
    "sum_pool",
    "max_pool",
    "get_pooling",
    "POOLING_FUNCTIONS",
]
