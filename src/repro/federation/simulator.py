"""Synchronous federated simulation environment.

:class:`FederatedEnvironment` ties together the devices, the server and the
communication ledger.  Lumos' tree constructor and GNN trainer operate on an
environment instance rather than on raw graphs, which keeps the privacy
boundary explicit: any cross-device data movement must go through
:meth:`FederatedEnvironment.exchange`, which records it.

The environment also owns the simulated clock: per-device compute is charged
through :meth:`charge_compute`, and an epoch's wall-clock estimate is the
straggler-aware maximum over devices (see
:meth:`repro.federation.network.CommunicationLedger.epoch_completion_time`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from ..graph.ego import EgoNetwork, partition_node_level
from ..graph.graph import Graph
from .device import Device, build_devices
from .events import SERVER_ID, MessageKind
from .network import CommunicationLedger
from .server import Server


@dataclass
class FederatedEnvironment:
    """All parties of one federated deployment plus shared accounting.

    Device ids are ``0..n-1`` by type: ``devices`` is keyed ``0, 1, ..., n-1``
    in that order, key ``i`` holds the ego network centred on vertex ``i``,
    and every neighbour id is itself a key (one device per vertex of the
    global graph — the paper's node-level split).  Construction rejects
    anything else with a ``ValueError``, so indexing a per-device array by
    id, by position in sorted-id order and by position in ``devices`` are
    the same thing everywhere downstream.  A caller with another id set
    relabels before constructing, as
    :func:`repro.maintenance.tree.fresh_assignment` does.
    """

    devices: Dict[int, Device]
    server: Server
    ledger: CommunicationLedger
    rng: np.random.Generator
    _directed_edges_cache: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _adjacency_csr_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )
    #: Current-round availability, indexed by device id.
    #: ``None`` (the default) means fully available — the fault-free fast
    #: path through :meth:`exchange` is a single ``is None`` check.
    _availability: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        """Enforce the id invariant of the class docstring, in one pass."""
        n = self.num_devices
        keys = np.fromiter(self.devices, dtype=np.int64, count=n)
        centers = np.fromiter(
            (device.ego.center for device in self.devices.values()), dtype=np.int64, count=n
        )
        for ids, complaint in (
            (keys, f"device ids must be 0..{n - 1} in order: position {{}} holds id {{}}"),
            (centers, "device {} holds the ego network of vertex {}"),
        ):
            wrong = np.flatnonzero(ids != np.arange(n))
            if wrong.size:
                raise ValueError(complaint.format(int(wrong[0]), int(ids[wrong[0]])))
        sources, neighbors = self.directed_edges()
        dangling = np.flatnonzero((neighbors < 0) | (neighbors >= n))
        if dangling.size:
            raise ValueError(
                f"device {int(sources[dangling[0]])} lists neighbour "
                f"{int(neighbors[dangling[0]])}, which is not a device"
            )

    @classmethod
    def from_graph(cls, graph: Graph, seed: int = 0) -> "FederatedEnvironment":
        """Split ``graph`` node-level and instantiate one device per vertex."""
        partition = partition_node_level(graph)
        return cls.from_partition(partition, seed=seed)

    @classmethod
    def from_partition(
        cls, partition: Dict[int, EgoNetwork], seed: int = 0
    ) -> "FederatedEnvironment":
        """Instantiate the environment from an existing ego-network partition."""
        ledger = CommunicationLedger()
        rng = np.random.default_rng(seed)
        server = Server(rng=np.random.default_rng(seed + 1))
        devices = build_devices(partition)
        return cls(devices=devices, server=server, ledger=ledger, rng=rng)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def device_ids(self) -> List[int]:
        """The device ids, ``[0, ..., n-1]``."""
        return list(self.devices)

    def workloads(self) -> Dict[int, int]:
        """Current workload of every device (selected-neighbour counts)."""
        return {device_id: device.workload for device_id, device in self.devices.items()}

    def workload_array(self) -> np.ndarray:
        """Workloads indexed by device id."""
        return np.asarray(
            [device.workload for device in self.devices.values()], dtype=np.int64
        )

    def max_workload(self) -> int:
        """The objective value f(X) = max_u wl(u) of the current assignment."""
        return int(self.workload_array().max()) if self.devices else 0

    def degrees(self) -> Dict[int, int]:
        """Private degrees (only used by tests / oracles, never by protocols)."""
        return {device_id: device.degree for device_id, device in self.devices.items()}

    def directed_edges(self) -> np.ndarray:
        """Directed ``(2, 2E)`` edge index of the union of all ego networks.

        Sources ascend (device by device, each device's neighbours in ego
        order, which is ascending too).  Cached in an explicit attribute
        after the first call — no method of the environment changes the ego
        structure; used by the vectorised greedy and balancing kernels and by
        :meth:`apply_assignment`'s ownership check.
        """
        if self._directed_edges_cache is not None:
            return self._directed_edges_cache
        blocks = [device.ego.neighbors for device in self.devices.values()]
        degrees = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
        edges = np.stack(
            [
                np.repeat(np.arange(len(blocks)), degrees),
                np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64),
            ]
        )
        self._directed_edges_cache = edges
        return edges

    def adjacency_csr(self) -> tuple:
        """``(indptr, indices)`` CSR view of :meth:`directed_edges`.

        Cached alongside the directed-edge cache.
        """
        if self._adjacency_csr_cache is not None:
            return self._adjacency_csr_cache
        sources, destinations = self.directed_edges()
        indptr = np.zeros(self.num_devices + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=self.num_devices), out=indptr[1:])
        self._adjacency_csr_cache = (indptr, destinations)
        return self._adjacency_csr_cache

    # ------------------------------------------------------------------ #
    # Availability (fault injection)
    # ------------------------------------------------------------------ #
    def set_availability(self, mask: Optional[np.ndarray]) -> None:
        """Install the current round's availability mask (or clear it).

        ``mask`` is boolean, indexed by device id — the convention of
        :class:`repro.faults.plan.FaultPlan` rows.  ``None`` restores full
        availability; the server is always available.
        """
        if mask is None:
            self._availability = None
            return
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.num_devices,):
            raise ValueError(
                f"availability mask must have shape ({self.num_devices},), "
                f"got {mask.shape}"
            )
        self._availability = mask.copy()

    def is_available(self, party_id: int) -> bool:
        """Whether ``party_id`` participates in the current round."""
        if self._availability is None or party_id == SERVER_ID:
            return True
        if party_id not in self.devices:
            raise KeyError(f"unknown device {party_id}")
        return bool(self._availability[party_id])

    # ------------------------------------------------------------------ #
    # Communication and compute accounting
    # ------------------------------------------------------------------ #
    def exchange(
        self,
        sender: int,
        recipient: int,
        kind: MessageKind,
        size_bytes: int,
        description: str = "",
    ) -> None:
        """Record a device-to-device (or device-server) message.

        Under an availability mask, a message from an offline sender is
        suppressed — nothing is transmitted or charged, only a drop record
        is kept — while a message to an offline recipient is transmitted
        (the sender cannot know) and therefore charged normally *plus*
        logged as undelivered.
        """
        if sender != SERVER_ID and sender not in self.devices:
            raise KeyError(f"unknown sender device {sender}")
        if recipient != SERVER_ID and recipient not in self.devices:
            raise KeyError(f"unknown recipient device {recipient}")
        if self._availability is not None:
            if not self.is_available(sender):
                self.ledger.drop(sender, recipient, kind, size_bytes, description)
                return
            if not self.is_available(recipient):
                self.ledger.send(sender, recipient, kind, size_bytes, description)
                self.ledger.drop(sender, recipient, kind, size_bytes, description)
                return
        self.ledger.send(sender, recipient, kind, size_bytes, description)

    def exchange_many(
        self,
        senders: np.ndarray,
        recipients: np.ndarray,
        kind: MessageKind,
        size_bytes: int,
        description: str = "",
    ) -> None:
        """One :meth:`exchange` per ``(sender, recipient)`` device pair, recorded columnar.

        Under an availability mask the pairs do go through :meth:`exchange`
        one by one, so offline endpoints leave their drop records.
        """
        endpoints = np.concatenate([senders, recipients])
        if ((endpoints < 0) | (endpoints >= self.num_devices)).any():
            raise KeyError("unknown device in a bulk exchange")
        if self._availability is not None:
            for sender, recipient in zip(senders.tolist(), recipients.tolist()):
                self.exchange(sender, recipient, kind, size_bytes, description)
            return
        rounds = np.full(senders.shape[0], self.ledger.current_round, dtype=np.int64)
        self.ledger.send_many(
            senders, recipients, kind, np.full_like(rounds, size_bytes), rounds, description
        )

    def charge_compute(self, device_id: int, cost: float, description: str = "") -> None:
        """Charge ``cost`` units of computation to ``device_id``."""
        if device_id not in self.devices:
            raise KeyError(f"unknown device {device_id}")
        self.ledger.compute(device_id, cost, description)

    def next_round(self) -> int:
        """Advance the global synchronous round."""
        return self.ledger.next_round()

    # ------------------------------------------------------------------ #
    # Assignment helpers used by the tree constructor
    # ------------------------------------------------------------------ #
    def assignment(self) -> Dict[int, List[int]]:
        """Current neighbour selection ``(N_1, ..., N_|V|)`` per device."""
        return {
            device_id: list(device.selected_neighbors)
            for device_id, device in self.devices.items()
        }

    def apply_assignment(self, assignment: Mapping[int, Iterable[int]]) -> None:
        """Install a neighbour selection produced by the tree constructor.

        Every device ``assignment`` names gets the ids it maps to, sorted and
        without duplicates; the other devices keep their selection.  A device
        can only keep edges it owns, so all ``(device, neighbour)`` pairs are
        looked up in :meth:`directed_edges` in one pass before anything is
        installed: an unknown device is a ``KeyError``, a pair that is no edge
        the ``ValueError`` of :meth:`Device.select_neighbors` naming the first
        one, and either leaves the environment as it was.
        """
        n = self.num_devices
        selections = [list(chosen) for chosen in assignment.values()]
        counts = np.fromiter(map(len, selections), dtype=np.int64, count=len(selections))
        device_ids = np.fromiter(assignment, dtype=np.int64, count=len(selections))
        unknown = np.flatnonzero((device_ids < 0) | (device_ids >= n))
        if unknown.size:
            raise KeyError(f"unknown device {int(device_ids[unknown[0]])}")
        owners = np.repeat(device_ids, counts)
        chosen = np.fromiter(
            chain.from_iterable(selections), dtype=np.int64, count=int(counts.sum())
        )
        # One integer per pair.  The directed edges' codes ascend (see there);
        # the sentinel is what a lookup past the last edge reads.
        codes = owners * n + chosen
        sources, neighbors = self.directed_edges()
        edge_codes = np.append(sources * n + neighbors, -1)
        owned = edge_codes[np.searchsorted(edge_codes[:-1], codes)] == codes
        offenders = np.flatnonzero(~(owned & (chosen >= 0) & (chosen < n)))
        if offenders.size:
            first = offenders[0]
            raise ValueError(
                f"device {int(owners[first])} cannot select non-neighbour {int(chosen[first])}"
            )
        kept = np.unique(codes)  # by device, then by neighbour
        bounds = np.searchsorted(kept, np.arange(n + 1) * n).tolist()
        kept_neighbors = (kept % n).tolist()
        for device_id in device_ids.tolist():
            self.devices[device_id].selected_neighbors = kept_neighbors[
                bounds[device_id] : bounds[device_id + 1]
            ]

    def validate_edge_coverage(self) -> bool:
        """Check the constraint of Eq. 10: every edge is kept by >= 1 endpoint."""
        for device_id, device in self.devices.items():
            for neighbor in device.ego.neighbors:
                neighbor = int(neighbor)
                kept_here = neighbor in device.selected_neighbors
                kept_there = device_id in self.devices[neighbor].selected_neighbors
                if not (kept_here or kept_there):
                    return False
        return True

    def summary(self) -> Dict[str, float]:
        """Headline counters of the environment."""
        workloads = self.workload_array()
        result = {
            "num_devices": float(self.num_devices),
            "max_workload": float(workloads.max()) if self.num_devices else 0.0,
            "mean_workload": float(workloads.mean()) if self.num_devices else 0.0,
        }
        result.update(self.ledger.summary(self.num_devices))
        return result
