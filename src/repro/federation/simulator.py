"""Synchronous federated simulation environment.

:class:`FederatedEnvironment` ties together the devices, the server and the
communication ledger.  Lumos' tree constructor and GNN trainer operate on an
environment instance rather than on raw graphs, which keeps the privacy
boundary explicit: any cross-device data movement must go through
:meth:`FederatedEnvironment.exchange_many`, which records it.

Per-device compute is charged to the same ledger (``ledger.compute_many``
for a whole round); the simulated epoch time — the slowest device's finish,
the straggler effect the tree trimmer mitigates — is
:meth:`repro.core.trainer.EpochCostModel.epoch_time`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..graph.graph import Graph, _read_only, partition_node_level
from .events import MessageKind
from .network import CommunicationLedger, constant_column
from .server import Server


@dataclass(eq=False)
class FederatedEnvironment:
    """All parties of one federated deployment plus shared accounting.

    A device is a row.  Device ``v`` (one vertex of the global graph — the
    paper's node-level split) sees exactly row ``v`` of two read-only arrays:
    its neighbours ``indices[indptr[v]:indptr[v + 1]]``, strictly ascending,
    and its own feature ``features[v]``.  Device ids are therefore ``0..n-1``
    by construction, and indexing a per-device array by id is the only
    indexing there is.  Construction validates the CSR and rejects a
    malformed one with a ``ValueError`` naming the first offender.  A caller
    with another id set relabels before constructing, as
    :func:`repro.maintenance.tree.fresh_assignment` does.

    The arrays are never written, so environments built from one partition
    share them.  The per-run state is the ledger, the random streams, the
    availability mask and :attr:`selection`.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    server: Server
    ledger: CommunicationLedger
    rng: np.random.Generator
    #: The installed neighbour selection: one read-only bool per CSR
    #: position, ``selection[p]`` when the pair at ``p`` is kept.  Nothing is
    #: kept until :meth:`apply_assignment` installs one.
    selection: np.ndarray = field(init=False, repr=False)
    #: Current-round availability, indexed by device id.
    #: ``None`` (the default) means fully available — the fault-free fast
    #: path through :meth:`exchange_many` is a single ``is None`` check.
    _availability: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        """Validate the CSR of the class docstring and freeze the arrays."""
        indptr, indices = (_read_only(_device_ids(array)) for array in (self.indptr, self.indices))
        features = _read_only(np.asarray(self.features, dtype=np.float64))
        if indptr.ndim != 1 or not indptr.size or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D, indptr with n + 1 entries")
        if indptr[0] != 0:
            raise ValueError(f"indptr must start at 0, not {int(indptr[0])}")
        drops = np.flatnonzero(np.diff(indptr) < 0)
        if drops.size:
            raise ValueError(f"indptr decreases at device {int(drops[0])}")
        if indptr[-1] != indices.shape[0]:
            raise ValueError(
                f"indptr ends at {int(indptr[-1])}, but indices holds {indices.shape[0]} ids"
            )
        n = indptr.shape[0] - 1
        sources = np.repeat(np.arange(n), np.diff(indptr))
        for offenders, complaint in (
            (np.flatnonzero((indices < 0) | (indices >= n)), "which is not a device"),
            (np.flatnonzero(indices == sources), "which is itself"),
            (
                1 + np.flatnonzero((sources[1:] == sources[:-1]) & (indices[1:] <= indices[:-1])),
                "out of ascending order",
            ),
        ):
            if offenders.size:
                first = offenders[0]
                raise ValueError(
                    f"device {int(sources[first])} lists neighbour {int(indices[first])}, "
                    + complaint
                )
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError(f"features must have one row per device: {features.shape} for {n}")
        self.indptr, self.indices, self.features = indptr, indices, features
        self.selection = _read_only(np.zeros(indices.shape[0], dtype=bool))

    @classmethod
    def from_graph(cls, graph: Graph, seed: int = 0) -> "FederatedEnvironment":
        """Split ``graph`` node-level and instantiate one device per vertex."""
        return cls.from_partition(partition_node_level(graph), seed=seed)

    @classmethod
    def from_partition(
        cls, partition: Tuple[np.ndarray, np.ndarray, np.ndarray], seed: int = 0
    ) -> "FederatedEnvironment":
        """Instantiate the environment from a node-level partition
        ``(indptr, indices, features)``."""
        indptr, indices, features = partition
        return cls(
            indptr=indptr,
            indices=indices,
            features=features,
            server=Server(rng=np.random.default_rng(seed + 1)),
            ledger=CommunicationLedger(),
            rng=np.random.default_rng(seed),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return self.indptr.shape[0] - 1

    def workload_array(self) -> np.ndarray:
        """Workloads of the installed selection, indexed by device id."""
        return row_counts(self.indptr, self.selection)

    def directed_edges(self) -> np.ndarray:
        """Directed ``(2, 2E)`` edge index of the CSR: sources ascend, and
        each device's neighbours ascend after it."""
        sources = np.repeat(np.arange(self.num_devices), np.diff(self.indptr))
        return np.stack([sources, self.indices])

    def adjacency_csr(self) -> tuple:
        """The read-only ``(indptr, indices)`` pair itself."""
        return self.indptr, self.indices

    # ------------------------------------------------------------------ #
    # Availability (fault injection)
    # ------------------------------------------------------------------ #
    def set_availability(self, mask: Optional[np.ndarray]) -> None:
        """Install the current round's availability mask (or clear it).

        ``mask`` is boolean (anything else is a ``TypeError``), indexed by
        device id — the convention of :class:`repro.faults.plan.FaultPlan`
        rows.  ``None`` restores full availability; the server is always
        available.
        """
        if mask is None:
            self._availability = None
            return
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise TypeError(f"availability mask must be boolean, not {mask.dtype}")
        if mask.shape != (self.num_devices,):
            raise ValueError(
                f"availability mask must have shape ({self.num_devices},), "
                f"got {mask.shape}"
            )
        self._availability = mask.copy()

    # ------------------------------------------------------------------ #
    # Communication accounting
    # ------------------------------------------------------------------ #
    def exchange_many(
        self,
        senders: np.ndarray,
        recipients: np.ndarray,
        kind: MessageKind,
        size_bytes: int,
        description: str = "",
    ) -> None:
        """Record one message per ``(sender, recipient)`` device pair, columnar.

        Both endpoints must be devices: a non-integer id is a ``TypeError``,
        any other id (the server included) a ``KeyError``.  Under an
        availability mask, a message from an offline sender is suppressed —
        nothing is transmitted or charged, only a drop row is kept — while a
        message to an offline recipient is transmitted (the sender cannot
        know) and therefore charged normally *plus* logged as undelivered.
        """
        endpoints = np.concatenate([_device_ids(senders), _device_ids(recipients)])
        unknown = np.flatnonzero((endpoints < 0) | (endpoints >= self.num_devices))
        if unknown.size:
            raise KeyError(f"unknown device {int(endpoints[unknown[0]])}")
        ledger, round_index = self.ledger, self.ledger.current_round

        def record(log, senders, recipients) -> None:
            count = senders.shape
            size, rounds = constant_column(size_bytes, count), constant_column(round_index, count)
            log(senders, recipients, kind, size, rounds, description)

        if self._availability is not None:
            sent = self._availability[senders]
            lost = ~(sent & self._availability[recipients])
            record(ledger.drop_many, senders[lost], recipients[lost])
            senders, recipients = senders[sent], recipients[sent]
        record(ledger.send_many, senders, recipients)

    def next_round(self) -> int:
        """Advance the global synchronous round."""
        return self.ledger.next_round()

    # ------------------------------------------------------------------ #
    # The tree constructor's selection
    # ------------------------------------------------------------------ #
    def apply_assignment(self, kept: np.ndarray) -> None:
        """Install a neighbour selection: one bool per CSR position, as
        :attr:`repro.core.workload.Assignment.kept` holds it.  Another dtype
        is a ``TypeError``, another shape a ``ValueError``; either leaves the
        installed selection as it was."""
        self.selection = _read_only(selection_mask(kept, self.indices).copy())


def selection_mask(kept, indices: np.ndarray) -> np.ndarray:
    """``kept`` as a selection over the CSR positions of ``indices``: a
    boolean array of their shape (``TypeError`` / ``ValueError`` otherwise)."""
    kept = np.asarray(kept)
    if kept.dtype != bool:
        raise TypeError(f"a selection is a boolean mask, not {kept.dtype}")
    if kept.shape != indices.shape:
        raise ValueError(
            f"a selection has one entry per CSR position: {kept.shape} for {indices.shape}"
        )
    return kept


def row_counts(indptr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """How many positions of each CSR row ``mask`` holds (int64)."""
    counts = np.zeros(mask.shape[0] + 1, dtype=np.int64)
    np.cumsum(mask, out=counts[1:])
    return counts[indptr[1:]] - counts[indptr[:-1]]


def _device_ids(values: np.ndarray) -> np.ndarray:
    """``values`` as an array of ids; a float, bool or other non-integer id is
    a ``TypeError`` (an empty array of any dtype has no id to complain about)."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        first = values.flat[0].item()
        raise TypeError(f"device ids must be integers, got {first!r} ({values.dtype})")
    return values.astype(np.int64, copy=False)
