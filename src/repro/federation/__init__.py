"""Federated runtime simulator: devices, server, communication accounting."""

from .device import Device, build_devices
from .events import SERVER_ID, MessageKind
from .network import CommunicationLedger
from .server import Server
from .simulator import FederatedEnvironment

__all__ = [
    "Device",
    "build_devices",
    "Server",
    "MessageKind",
    "SERVER_ID",
    "CommunicationLedger",
    "FederatedEnvironment",
]
