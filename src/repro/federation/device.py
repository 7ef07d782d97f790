"""Device abstraction for the node-level federated setting.

A :class:`Device` wraps one :class:`~repro.graph.ego.EgoNetwork` and owns the
tree-constructor state the paper keeps on the client side: the (trimmed)
neighbour set ``N_u``.  What a device receives and computes while training is
held columnar by the exchange result and the trainer, not per device.
Devices never read each other's private attributes directly — all
cross-device state movement goes through the simulator / ledger so
communication is accounted for and the privacy boundary stays auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..graph.ego import EgoNetwork


@dataclass
class Device:
    """One federated client (one vertex of the global graph)."""

    ego: EgoNetwork
    # --- tree-constructor state -------------------------------------------------
    selected_neighbors: List[int] = field(default_factory=list)

    @property
    def device_id(self) -> int:
        """Global vertex id of this device."""
        return self.ego.center

    @property
    def degree(self) -> int:
        """Private degree of the device (never shared in clear)."""
        return self.ego.degree

    @property
    def workload(self) -> int:
        """Current workload ``wl(u)`` = number of selected neighbours."""
        return len(self.selected_neighbors)

    def select_all_neighbors(self) -> None:
        """Initialise the selection with the full neighbour set (no trimming)."""
        self.selected_neighbors = [int(v) for v in self.ego.neighbors]

    def select_neighbors(self, neighbors: List[int]) -> None:
        """Replace the selected-neighbour set.

        Every selected neighbour must actually be a neighbour in the ego
        network — a device can only ever keep edges it already owns.
        """
        allowed = set(int(v) for v in self.ego.neighbors)
        cleaned = []
        for vertex in neighbors:
            vertex = int(vertex)
            if vertex not in allowed:
                raise ValueError(
                    f"device {self.device_id} cannot select non-neighbour {vertex}"
                )
            cleaned.append(vertex)
        self.selected_neighbors = sorted(set(cleaned))


def build_devices(partition: Dict[int, EgoNetwork]) -> Dict[int, Device]:
    """Wrap every ego network of a node-level partition into a :class:`Device`."""
    return {vertex: Device(ego=ego) for vertex, ego in partition.items()}
