"""Traffic categories and the server's pseudo id for the federated ledger."""

from __future__ import annotations

from enum import Enum


class MessageKind(Enum):
    """Categories of inter-party traffic tracked by the simulator.

    The categories mirror the communication the paper accounts for:
    feature exchange and embedding exchange dominate the per-epoch
    inter-device rounds (Fig. 8a), while the secure-comparison and server
    coordination traffic belongs to the one-off tree-construction phase.
    """

    FEATURE_EXCHANGE = "feature_exchange"
    EMBEDDING_EXCHANGE = "embedding_exchange"
    LOSS_EXCHANGE = "loss_exchange"
    SECURE_COMPARISON = "secure_comparison"
    SERVER_COORDINATION = "server_coordination"
    MODEL_SYNC = "model_sync"
    OTHER = "other"


SERVER_ID = -1
"""Pseudo device id used for the central server in message records."""
