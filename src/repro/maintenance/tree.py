"""Delta operations on a constructed tree, with write-ahead journaling.

A :class:`MaintainedTree` is the mutable, served form of a
:class:`~repro.core.constructor.TreeConstructionResult`: the federation's
adjacency plus the workload-balancing :class:`~repro.core.workload.Assignment`
it was constructed with, kept consistent under churn by O(degree) delta
operations instead of from-scratch reconstruction:

* :meth:`insert_device` — a joining device's edges are assigned to the
  lighter endpoint (smaller id on ties), one secure comparison per edge;
* :meth:`remove_device` — a leaving device's edges (and both endpoints'
  selections of them) vanish;
* :meth:`update_degree` — edge additions/removals for a present device;
* :meth:`rebalance` — a localized Alg. 2 pass over a region, built on the
  incremental kernel's ``apply_transfer``/``undo_transfer`` deltas;
* :meth:`rebuild` — last-resort degradation: a fresh construction over the
  present devices, with a seed derived from the mutation chain.

Every mutation is serialised into the :class:`MutationJournal` *before* it
is applied (write-ahead), and the tree maintains a rolling SHA-256 ``chain``
over the canonical record bytes — the O(1) version witness snapshots and
replays verify against.  The full determinism contract is
``MaintainedTree.replay(journal, snapshots).state_digest() ==
live.state_digest()`` where the digest covers the adjacency, the selection,
the RNG bit-generator state, the canonical ledger transcript and the
secure-comparison accountant — bit for bit, including after a mid-write
``os._exit`` kill injected through :class:`~repro.runtime.ChaosConfig`.

Snapshots are atomic versioned artifacts: the full state is published
through an :class:`~repro.engine.store.ArtifactStore` (its fingerprint
machinery keys them by ``(seq, chain)``; the disk-spill variant publishes
via atomic rename), and the journal records only the key + state digest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.mcmc import _charge_analytic_comparisons, localized_rebalance
from ..core.workload import Assignment
from ..crypto.oblivious_transfer import TranscriptAccountant
from ..engine.fingerprint import stage_key
from ..engine.store import ArtifactStore, DiskSpillStore, StoredArtifact
from ..federation.events import SERVER_ID, MessageKind
from ..federation.network import CommunicationLedger
from ..runtime.worker import ChaosConfig, chaos_action
from .journal import MutationJournal, _encode, read_records

__all__ = ["MaintenanceConfig", "MaintainedTree", "fresh_assignment"]

#: Counter keys, in reporting order.
_COUNTER_KEYS = (
    "joins",
    "leaves",
    "degree_updates",
    "rebalances",
    "rebuilds",
    "edges_added",
    "edges_removed",
    "rebalance_moves",
)


@dataclass(frozen=True)
class MaintenanceConfig:
    """Knobs of the maintenance layer (fingerprintable, journalled at genesis)."""

    seed: int = 0
    rebalance_iterations: int = 40
    rebuild_mcmc_iterations: int = 120
    comparison_bits: int = 24

    def __post_init__(self) -> None:
        if self.rebalance_iterations < 0 or self.rebuild_mcmc_iterations < 0:
            raise ValueError("iteration counts must be non-negative")


def _transcript_digest(records: List[tuple]) -> str:
    """Stable digest of a canonical ledger transcript.

    ``message_records()`` is already the canonical sorted form; hashing its
    reprs gives a cross-process comparable fingerprint without shipping the
    (potentially large) record list itself.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def fresh_assignment(
    neighbors: Mapping[int, Iterable[int]],
    mcmc_iterations: int,
    seed: int,
) -> Tuple[Dict[int, List[int]], TranscriptAccountant]:
    """From-scratch construction over an arbitrary adjacency.

    Renumbers the present devices to ``0..m-1`` (a ``FederatedEnvironment``
    accepts no other id set), runs the full
    :class:`~repro.core.constructor.TreeConstructor`
    pipeline on a synthetic feature-free graph, and maps the balanced
    selection back to the original ids.  Pure function of
    ``(adjacency, mcmc_iterations, seed)`` — both the staleness reference
    and the journalled rebuild op rely on that.
    """
    from ..core.config import TreeConstructorConfig
    from ..core.constructor import TreeConstructor
    from ..federation.simulator import FederatedEnvironment
    from ..graph.graph import Graph

    present = sorted(int(v) for v in neighbors)
    if not present:
        return {}, TranscriptAccountant()
    index = {vertex: i for i, vertex in enumerate(present)}
    edges = [
        [index[u], index[int(v)]]
        for u in present
        for v in neighbors[u]
        if u < int(v) and int(v) in index
    ]
    graph = Graph(
        num_nodes=len(present),
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        features=np.zeros((len(present), 1), dtype=np.float64),
        name="maintenance-rebuild",
    )
    environment = FederatedEnvironment.from_graph(graph, seed=0)
    constructor = TreeConstructor(
        TreeConstructorConfig(mcmc_iterations=mcmc_iterations),
        rng=np.random.default_rng(seed),
    )
    result = constructor.construct(environment)
    lists = {
        present[vertex]: sorted(present[v] for v in selected)
        for vertex, selected in result.assignment.as_lists().items()
    }
    return lists, result.transcript


class MaintainedTree:
    """A constructed tree kept live under churn via journalled delta ops."""

    def __init__(
        self,
        neighbors: Dict[int, Set[int]],
        assignment: Assignment,
        config: MaintenanceConfig,
        *,
        rng: np.random.Generator,
        ledger: CommunicationLedger,
        accountant: TranscriptAccountant,
        seq: int,
        chain: str,
        counters: Optional[Dict[str, int]] = None,
        journal: Optional[MutationJournal] = None,
        snapshots: Optional[ArtifactStore] = None,
        chaos: Optional[ChaosConfig] = None,
        chaos_attempt: int = 1,
    ) -> None:
        self.neighbors = neighbors
        self.assignment = assignment
        self.config = config
        self.rng = rng
        self.ledger = ledger
        self.accountant = accountant
        self.seq = seq
        self.chain = chain
        self.counters = {key: 0 for key in _COUNTER_KEYS}
        if counters:
            self.counters.update(counters)
        self.journal = journal
        self.snapshots = snapshots
        self.chaos = chaos
        self.chaos_attempt = chaos_attempt

    # ------------------------------------------------------------------ #
    # Construction / restoration
    # ------------------------------------------------------------------ #
    @classmethod
    def from_construction(
        cls,
        assignment_lists: Mapping[int, Iterable[int]],
        adjacency: Mapping[int, Iterable[int]],
        config: MaintenanceConfig = MaintenanceConfig(),
        *,
        journal: Optional[MutationJournal] = None,
        snapshots: Optional[ArtifactStore] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> "MaintainedTree":
        """Wrap a construction result; journal a genesis snapshot if enabled."""
        if journal is not None and snapshots is None:
            raise ValueError("journaling requires a snapshot store (genesis state)")
        neighbors = {
            int(v): {int(u) for u in adjacent} for v, adjacent in adjacency.items()
        }
        assignment = Assignment.from_lists(assignment_lists)
        for vertex in neighbors:
            assignment.selected.setdefault(vertex, set())
        genesis = hashlib.sha256(b"lumos-maintenance-genesis").hexdigest()
        tree = cls(
            neighbors,
            assignment,
            config,
            rng=np.random.default_rng(config.seed),
            ledger=CommunicationLedger(),
            accountant=TranscriptAccountant(),
            seq=0,
            chain=genesis,
            journal=journal,
            snapshots=snapshots,
            chaos=chaos,
        )
        if journal is not None:
            key, digest = tree._publish_snapshot()
            journal.append(
                {"seq": 0, "op": "genesis", "key": key, "state_digest": digest}
            )
        return tree

    @classmethod
    def _from_state(
        cls,
        state: Dict[str, Any],
        *,
        journal: Optional[MutationJournal] = None,
        snapshots: Optional[ArtifactStore] = None,
        chaos: Optional[ChaosConfig] = None,
        chaos_attempt: int = 1,
    ) -> "MaintainedTree":
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state["rng_state"]
        return cls(
            {int(v): set(adj) for v, adj in state["neighbors"].items()},
            Assignment.from_lists(state["selected"]),
            state["config"],
            rng=rng,
            # Copy again: the same stored artifact may seed several replays.
            ledger=copy.deepcopy(state["ledger"]),
            accountant=copy.deepcopy(state["accountant"]),
            seq=int(state["seq"]),
            chain=state["chain"],
            counters=dict(state["counters"]),
            journal=journal,
            snapshots=snapshots,
            chaos=chaos,
            chaos_attempt=chaos_attempt,
        )

    @classmethod
    def replay(
        cls,
        journal_path,
        snapshots: ArtifactStore,
        *,
        records: Optional[List[Dict[str, Any]]] = None,
        journal: Optional[MutationJournal] = None,
        chaos: Optional[ChaosConfig] = None,
        chaos_attempt: int = 1,
    ) -> "MaintainedTree":
        """Reconstruct the live tree from the journal + snapshot store.

        Restores the most recent snapshot whose artifact still loads (a
        quarantined/evicted snapshot silently degrades to an earlier one)
        and re-executes every mutation record after it.  State digests
        recorded at snapshot points are verified along the way.
        """
        if records is None:
            records, _ = read_records(journal_path)
        if not records or records[0].get("op") != "genesis":
            raise ValueError(f"{journal_path}: missing genesis record")
        start, state = None, None
        for i in reversed(range(len(records))):
            record = records[i]
            if record["op"] in ("genesis", "snapshot"):
                artifact = snapshots.get(record["key"])
                if artifact is not None:
                    start, state = i, artifact.value
                    break
        if state is None:
            raise RuntimeError(
                f"{journal_path}: no snapshot (not even genesis) could be loaded"
            )
        tree = cls._from_state(
            state,
            journal=journal,
            snapshots=snapshots,
            chaos=chaos,
            chaos_attempt=chaos_attempt,
        )
        if tree.state_digest() != records[start]["state_digest"]:
            raise RuntimeError(
                f"{journal_path}: snapshot at seq {tree.seq} fails digest check"
            )
        for record in records[start + 1 :]:
            if record["op"] == "snapshot":
                if tree.state_digest() != record["state_digest"]:
                    raise RuntimeError(
                        f"{journal_path}: replay diverged at seq {record['seq']}"
                    )
                continue
            tree._apply_record(record)
        return tree

    @classmethod
    def recover(
        cls,
        journal_path,
        snapshots: ArtifactStore,
        *,
        chaos: Optional[ChaosConfig] = None,
    ) -> "MaintainedTree":
        """Crash recovery: truncate the torn journal tail, replay, reattach.

        The returned tree keeps appending to the *same* journal, so the
        replay contract keeps holding after recovery.  Chaos injection (if
        any) continues at attempt 2 — beyond the default ``max_attempt`` —
        mirroring the runtime's retries-converge guarantee.
        """
        journal, records = MutationJournal.recover(journal_path)
        return cls.replay(
            journal_path,
            snapshots,
            records=records,
            journal=journal,
            chaos=chaos,
            chaos_attempt=2,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_devices(self) -> int:
        return len(self.neighbors)

    def present(self) -> List[int]:
        return sorted(self.neighbors)

    def objective(self) -> int:
        return self.assignment.objective()

    def workloads(self) -> Dict[int, int]:
        return self.assignment.workloads()

    def state_digest(self) -> str:
        """SHA-256 over the complete maintained state (the replay witness)."""
        hasher = hashlib.sha256()
        hasher.update(f"seq={self.seq};chain={self.chain}".encode("utf-8"))
        for vertex in self.present():
            hasher.update(
                f"adj:{vertex}:{sorted(self.neighbors[vertex])}".encode("utf-8")
            )
        for vertex, selected in sorted(self.assignment.selected.items()):
            hasher.update(f"sel:{vertex}:{sorted(selected)}".encode("utf-8"))
        hasher.update(repr(self.rng.bit_generator.state).encode("utf-8"))
        hasher.update(_transcript_digest(self.ledger.message_records()).encode("utf-8"))
        hasher.update(
            f"rounds={self.ledger.current_round};"
            f"dropped={self.ledger.total_dropped_messages()}".encode("utf-8")
        )
        hasher.update(
            json.dumps(self.accountant.snapshot(), sort_keys=True).encode("utf-8")
        )
        hasher.update(json.dumps(self.counters, sort_keys=True).encode("utf-8"))
        return hasher.hexdigest()

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def _state_dict(self) -> Dict[str, Any]:
        return {
            "neighbors": {v: sorted(adj) for v, adj in self.neighbors.items()},
            "selected": self.assignment.as_lists(),
            "config": self.config,
            "seq": self.seq,
            "chain": self.chain,
            "rng_state": self.rng.bit_generator.state,
            # Deep copies: with an in-memory snapshot store the artifact
            # would otherwise alias the live objects, and a later replay
            # would mutate the very ledger it is compared against.
            "ledger": copy.deepcopy(self.ledger),
            "accountant": copy.deepcopy(self.accountant),
            "counters": dict(self.counters),
        }

    def _publish_snapshot(self) -> Tuple[str, str]:
        key = stage_key(
            "maintenance-snapshot", f"seq={self.seq}", f"chain={self.chain}"
        )
        self.snapshots.put(key, StoredArtifact(value=self._state_dict()))
        if isinstance(self.snapshots, DiskSpillStore):
            self.snapshots.persist(key)
        return key, self.state_digest()

    def snapshot(self) -> str:
        """Publish an atomic versioned snapshot and journal its key/digest."""
        if self.snapshots is None:
            raise ValueError("tree has no snapshot store")
        key, digest = self._publish_snapshot()
        if self.journal is not None:
            self.journal.append(
                {"seq": self.seq, "op": "snapshot", "key": key, "state_digest": digest}
            )
        return key

    # ------------------------------------------------------------------ #
    # Mutations (public wrappers: validate -> journal -> apply)
    # ------------------------------------------------------------------ #
    def insert_device(self, device: int, neighbors: Iterable[int]) -> List[int]:
        """Join ``device`` with edges to every *present* requested neighbour."""
        device = int(device)
        if device in self.neighbors:
            raise ValueError(f"device {device} is already present")
        # Membership lookups only: O(requested degree), never O(devices).
        applied = sorted(
            {v for v in map(int, neighbors) if v in self.neighbors} - {device}
        )
        self._commit(
            {"seq": self.seq + 1, "op": "insert", "device": device, "neighbors": applied}
        )
        return applied

    def remove_device(self, device: int) -> None:
        """Leave: drop ``device`` and every edge (and selection) touching it."""
        device = int(device)
        if device not in self.neighbors:
            raise ValueError(f"device {device} is not present")
        self._commit({"seq": self.seq + 1, "op": "remove", "device": device})

    def update_degree(
        self,
        device: int,
        add: Iterable[int] = (),
        remove: Iterable[int] = (),
    ) -> Tuple[List[int], List[int]]:
        """Change a present device's edge set (adds filtered to present peers)."""
        device = int(device)
        if device not in self.neighbors:
            raise ValueError(f"device {device} is not present")
        current = self.neighbors[device]
        applied_add = sorted(
            {v for v in map(int, add) if v in self.neighbors} - current - {device}
        )
        applied_remove = sorted({int(v) for v in remove} & current)
        self._commit(
            {
                "seq": self.seq + 1,
                "op": "update_degree",
                "device": device,
                "add": applied_add,
                "remove": applied_remove,
            }
        )
        return applied_add, applied_remove

    def rebalance(
        self,
        region: Optional[Sequence[int]] = None,
        iterations: Optional[int] = None,
    ) -> Dict[str, int]:
        """Localized Alg. 2 pass; default region = heaviest device + its hood."""
        if region is None:
            if not self.neighbors:
                return {"accepted": 0, "moves": 0, "comparisons": 0}
            heaviest = self.assignment.argmax_workload()
            region = sorted({heaviest} | self.neighbors.get(heaviest, set()))
        iterations = (
            self.config.rebalance_iterations if iterations is None else int(iterations)
        )
        record = {
            "seq": self.seq + 1,
            "op": "rebalance",
            "region": sorted(int(v) for v in region),
            "iterations": iterations,
        }
        return self._commit(record)

    def rebuild(self, mcmc_iterations: Optional[int] = None) -> None:
        """Full reconstruction over the present devices (last-resort path).

        The construction seed is a pure function of the mutation chain, so
        an uninterrupted run and a replayed/recovered run derive the same
        seed without consuming the maintained RNG stream.
        """
        iterations = (
            self.config.rebuild_mcmc_iterations
            if mcmc_iterations is None
            else int(mcmc_iterations)
        )
        seed = int.from_bytes(
            hashlib.sha256(f"rebuild:{self.chain}".encode("utf-8")).digest()[:4],
            "little",
        )
        self._commit(
            {
                "seq": self.seq + 1,
                "op": "rebuild",
                "iterations": iterations,
                "seed": seed,
            }
        )

    # ------------------------------------------------------------------ #
    # Journal + apply machinery
    # ------------------------------------------------------------------ #
    def _commit(self, record: Dict[str, Any]):
        """Write-ahead: durably journal ``record``, then apply it."""
        self._journal_append(record)
        return self._apply_record(record)

    def _journal_append(self, record: Dict[str, Any]) -> None:
        if self.journal is None:
            return
        action = chaos_action(
            self.chaos, f"maintenance/{record['seq']}", self.chaos_attempt
        )
        if action == "crash":
            # A mid-write kill: flush a torn frame, then die like SIGKILL
            # would — no exception handlers, no atexit, no journal close.
            self.journal.append_torn(record)
            os._exit(86)
        elif action == "stall":
            time.sleep(self.chaos.stall_seconds)
        self.journal.append(record)

    def _apply_record(self, record: Dict[str, Any]):
        if record["seq"] != self.seq + 1:
            raise RuntimeError(
                f"journal gap: expected seq {self.seq + 1}, got {record['seq']}"
            )
        op = record["op"]
        if op == "insert":
            result = self._do_insert(record["device"], record["neighbors"])
        elif op == "remove":
            result = self._do_remove(record["device"])
        elif op == "update_degree":
            result = self._do_update_degree(
                record["device"], record["add"], record["remove"]
            )
        elif op == "rebalance":
            result = self._do_rebalance(record["region"], record["iterations"])
        elif op == "rebuild":
            result = self._do_rebuild(record["iterations"], record["seed"])
        else:
            raise ValueError(f"unknown journal op {op!r}")
        self.seq = record["seq"]
        self.chain = hashlib.sha256(
            f"{self.chain}|".encode("utf-8") + _encode(record)
        ).hexdigest()
        return result

    # ------------------------------------------------------------------ #
    # Delta operations (shared by live mutation and replay)
    # ------------------------------------------------------------------ #
    def _assign_edge(self, device: int, neighbor: int) -> None:
        """Cover a new edge: the lighter endpoint keeps it (smaller id ties)."""
        device_load = len(self.assignment.selected.get(device, ()))
        neighbor_load = len(self.assignment.selected.get(neighbor, ()))
        if (device_load, device) <= (neighbor_load, neighbor):
            keeper, kept = device, neighbor
        else:
            keeper, kept = neighbor, device
        self.assignment.selected.setdefault(keeper, set()).add(kept)

    def _do_insert(self, device: int, neighbors: List[int]) -> List[int]:
        self.neighbors[device] = set(neighbors)
        self.assignment.selected.setdefault(device, set())
        for neighbor in neighbors:
            self.neighbors[neighbor].add(device)
            self._assign_edge(device, neighbor)
        if neighbors:
            _charge_analytic_comparisons(
                self.accountant, len(neighbors), bit_width=self.config.comparison_bits
            )
        self.ledger.send(
            device,
            SERVER_ID,
            MessageKind.SERVER_COORDINATION,
            8 + 8 * len(neighbors),
            description="maintenance-join",
        )
        self.ledger.next_round()
        self.counters["joins"] += 1
        self.counters["edges_added"] += len(neighbors)
        return neighbors

    def _do_remove(self, device: int) -> None:
        dropped = sorted(self.neighbors.pop(device))
        for neighbor in dropped:
            self.neighbors[neighbor].discard(device)
            self.assignment.selected.get(neighbor, set()).discard(device)
        self.assignment.selected.pop(device, None)
        self.ledger.send(
            device,
            SERVER_ID,
            MessageKind.SERVER_COORDINATION,
            8,
            description="maintenance-leave",
        )
        self.ledger.next_round()
        self.counters["leaves"] += 1
        self.counters["edges_removed"] += len(dropped)

    def _do_update_degree(
        self, device: int, add: List[int], remove: List[int]
    ) -> Tuple[List[int], List[int]]:
        for neighbor in remove:
            self.neighbors[device].discard(neighbor)
            self.neighbors[neighbor].discard(device)
            self.assignment.selected.get(device, set()).discard(neighbor)
            self.assignment.selected.get(neighbor, set()).discard(device)
        for neighbor in add:
            self.neighbors[device].add(neighbor)
            self.neighbors[neighbor].add(device)
            self._assign_edge(device, neighbor)
        if add:
            _charge_analytic_comparisons(
                self.accountant, len(add), bit_width=self.config.comparison_bits
            )
        self.ledger.send(
            device,
            SERVER_ID,
            MessageKind.SERVER_COORDINATION,
            8 + 8 * (len(add) + len(remove)),
            description="maintenance-degree-update",
        )
        self.ledger.next_round()
        self.counters["degree_updates"] += 1
        self.counters["edges_added"] += len(add)
        self.counters["edges_removed"] += len(remove)
        return add, remove

    def _do_rebalance(self, region: List[int], iterations: int) -> Dict[str, int]:
        stats = localized_rebalance(
            self.assignment,
            region,
            iterations,
            self.rng,
            accountant=self.accountant,
            bit_width=self.config.comparison_bits,
        )
        self.ledger.send(
            SERVER_ID,
            SERVER_ID,
            MessageKind.SECURE_COMPARISON,
            8 * stats["comparisons"],
            description="maintenance-rebalance",
        )
        self.ledger.next_round()
        self.counters["rebalances"] += 1
        self.counters["rebalance_moves"] += stats["moves"]
        return stats

    def _do_rebuild(self, iterations: int, seed: int) -> None:
        lists, transcript = fresh_assignment(self.neighbors, iterations, seed)
        assignment = Assignment.from_lists(lists)
        for vertex in self.neighbors:
            assignment.selected.setdefault(vertex, set())
        self.assignment = assignment
        self.accountant.merge(transcript)
        self.ledger.send(
            SERVER_ID,
            SERVER_ID,
            MessageKind.SERVER_COORDINATION,
            8 * max(len(self.neighbors), 1),
            description="maintenance-rebuild",
        )
        self.ledger.next_round()
        self.counters["rebuilds"] += 1
