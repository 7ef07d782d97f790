"""GNN layers (GCN, GAT), encoders, task heads and link-prediction helpers.

The cross-device POOL layer (mean pooling, Eq. 31) is one sparse product in
:class:`repro.core.trainer.LumosModel`.
"""

from .gat import GATLayer
from .gcn import GCNLayer
from .link_prediction import (
    link_prediction_objective,
    negative_sampler,
    roc_auc_from_embeddings,
)
from .models import EncoderConfig, GNNEncoder, GraphInput, LinkPredictor, NodeClassifier

__all__ = [
    "GCNLayer",
    "GATLayer",
    "EncoderConfig",
    "GraphInput",
    "GNNEncoder",
    "NodeClassifier",
    "LinkPredictor",
    "negative_sampler",
    "link_prediction_objective",
    "roc_auc_from_embeddings",
]
