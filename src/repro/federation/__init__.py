"""Federated runtime simulator: devices, server, communication accounting."""

from .events import SERVER_ID, MessageKind
from .network import CommunicationLedger
from .server import Server
from .simulator import FederatedEnvironment

__all__ = [
    "Server",
    "MessageKind",
    "SERVER_ID",
    "CommunicationLedger",
    "FederatedEnvironment",
]
