"""Delta operations on a constructed tree, with write-ahead journaling.

A :class:`MaintainedTree` is the mutable, served form of a
:class:`~repro.core.constructor.TreeConstructionResult`: the federation's
adjacency plus the neighbour selection it was constructed with, kept
consistent under churn by O(degree) delta operations instead of from-scratch
reconstruction.  Devices join and leave, so there is no fixed CSR to mask:
the selection is a :class:`MaintainedSelection`, one set per present device.

* :meth:`insert_device` — a joining device's edges are assigned to the
  lighter endpoint (smaller id on ties), one secure comparison per edge;
* :meth:`remove_device` — a leaving device's edges (and both endpoints'
  selections of them) vanish;
* :meth:`update_degree` — edge additions/removals for a present device;
* :meth:`rebalance` — a localized Alg. 2 pass over a region
  (:func:`localized_rebalance`), built on O(k) transfer deltas;
* :meth:`rebuild` — last-resort degradation: a fresh construction over the
  present devices, with a seed derived from the mutation chain.

Every mutation is serialised into the :class:`MutationJournal` *before* it
is applied (write-ahead), and the tree maintains a rolling SHA-256 ``chain``
over the canonical record bytes — the O(1) version witness snapshots and
replays verify against.  The full determinism contract is
``MaintainedTree.replay(journal, snapshots).state_digest() ==
live.state_digest()`` where the digest covers the adjacency, the selection,
the RNG bit-generator state, the canonical ledger transcript and the
secure-comparison accountant — bit for bit, including after a process is
killed in the middle of a journal write.

Snapshots are atomic versioned artifacts: the full state is published
through an :class:`~repro.engine.store.ArtifactStore` (its fingerprint
machinery keys them by ``(seq, chain)``; the disk-spill variant publishes
via atomic rename), and the journal records only the key + state digest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import islice
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.mcmc import _charge_analytic_comparisons
from ..crypto.oblivious_transfer import TranscriptAccountant
from ..engine.fingerprint import stage_key
from ..engine.store import ArtifactStore, DiskSpillStore, StoredArtifact
from ..federation.events import SERVER_ID, MessageKind
from ..federation.network import CommunicationLedger
from .journal import MutationJournal, _encode, read_records

__all__ = [
    "MaintenanceConfig",
    "MaintainedSelection",
    "MaintainedTree",
    "fresh_assignment",
    "localized_rebalance",
]

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
        _count(self.rebalance_iterations, "rebalance_iterations")
        _count(self.rebuild_mcmc_iterations, "rebuild_mcmc_iterations")
        if not 1 <= self.comparison_bits <= 64:
            raise ValueError("comparison_bits must be in [1, 64]")


#: Entries hashed per ``update`` call: bounded chunks, never one whole-state string.
_CHUNK = 1024


def _hash_chunks(hasher, entries: Iterable[str]) -> None:
    """Feed ``entries`` to ``hasher`` concatenated, ``_CHUNK`` entries per update."""
    entries = iter(entries)
    while True:
        chunk = list(islice(entries, _CHUNK))
        if not chunk:
            return
        hasher.update("".join(chunk).encode("utf-8"))


def _transcript_digest(records: List[tuple]) -> str:
    """Stable digest of a canonical ledger transcript.

    ``message_records()`` is already the canonical sorted form; hashing its
    reprs, one line each, gives a cross-process comparable fingerprint
    without shipping the (potentially large) record list itself.
    """
    digest = hashlib.sha256()
    _hash_chunks(digest, (f"{record!r}\n" for record in records))
    return digest.hexdigest()


def _integer(value, name: str) -> int:
    """``value`` as an ``int``: an ``int`` or numpy integer, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} is an integer, not {type(value).__name__} {value!r}")
    return int(value)


def _device_ids(values: Iterable) -> List[int]:
    """Every value as a device id; a list of plain ``int`` s is checked by type alone."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    return [_integer(value, "a device id") for value in values]


def _count(value, name: str) -> int:
    """A non-negative iteration count (``TypeError`` / ``ValueError`` otherwise)."""
    count = _integer(value, name)
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    return count


@dataclass
class MaintainedSelection:
    """The maintained tree's neighbour selection: ``selected[u]`` is the set
    ``N_u`` of neighbours device ``u`` keeps, one entry per present device."""

    selected: Dict[int, Set[int]]

    def objective(self) -> int:
        """``f(X) = max_u |N_u|`` (0 without devices)."""
        return max(map(len, self.selected.values()), default=0)

    def workloads(self) -> Dict[int, int]:
        """Workload of every present device."""
        return {vertex: len(neighbors) for vertex, neighbors in self.selected.items()}

    def argmax_workload(self) -> int:
        """A device attaining the maximum workload (smallest id on ties)."""
        if not self.selected:
            raise ValueError("empty selection")
        return min(self.selected, key=lambda vertex: (-len(self.selected[vertex]), vertex))

    def as_lists(self) -> Dict[int, List[int]]:
        """The selection as sorted lists (stable output format)."""
        return {vertex: sorted(neighbors) for vertex, neighbors in self.selected.items()}

    def apply_transfer(self, source: int, targets: Sequence[int]) -> List[Tuple[int, bool]]:
        """The transition of Eq. 17 in place: each target leaves ``N_source``
        and ``source`` joins ``N_target``.  Returns ``(target, added)`` pairs,
        ``added`` when ``source`` was not in ``N_target`` yet."""
        source_selected = self.selected[source]
        record = []
        for target in targets:
            if target not in source_selected:
                raise ValueError(f"vertex {target} is not selected by device {source}")
            source_selected.discard(target)
            target_selected = self.selected[target]
            added = source not in target_selected
            target_selected.add(source)
            record.append((target, added))
        return record

    def undo_transfer(self, source: int, record: List[Tuple[int, bool]]) -> None:
        """Revert an :meth:`apply_transfer` given its record."""
        for target, added in reversed(record):
            if added:
                self.selected[target].discard(source)
            self.selected[source].add(target)


def localized_rebalance(
    selection: MaintainedSelection,
    region: Sequence[int],
    iterations: int,
    rng: np.random.Generator,
    accountant: Optional[TranscriptAccountant] = None,
    bit_width: int = 24,
) -> Dict[str, int]:
    """Alg. 2 restricted to ``region``, in place, via the O(k) deltas.

    After churn has perturbed a constructed tree, only the devices in
    ``region`` (typically the heaviest device and its ego neighbourhood)
    participate instead of the whole federation.  Each iteration mirrors one
    step of the global balancer — region-local argmax,
    ``k ~ Uniform{1, ..., round(ln |targets|)}`` sampled targets,
    Metropolis-Hastings acceptance — but both the argmax and the objective
    are evaluated over ``region`` only, so one iteration costs
    O(|region| + k) regardless of federation size.

    Charges the analytic comparison cost to ``accountant`` and returns
    deterministic counters (``accepted`` transitions, neighbour ``moves``,
    ``comparisons`` charged) for the caller's ledger entry.
    """
    selected = selection.selected
    region_set = selected.keys() & {int(v) for v in region}
    region_ids = sorted(region_set)
    accepted = 0
    moves = 0
    comparisons = 0
    for _ in range(iterations):
        if not region_ids:
            break
        # Region-local Alg. 3: argmax workload, smallest id on ties.
        heaviest, objective_before = region_ids[0], -1
        for vertex in region_ids:
            workload = len(selected[vertex])
            if workload > objective_before:
                heaviest, objective_before = vertex, workload
        comparisons += max(len(region_ids) - 1, 0)
        # Only region members may receive load: with targets outside the
        # region the *local* objective could "improve" by piling work onto
        # devices this rebalance never re-examines.
        targets_pool = sorted(v for v in selected[heaviest] if v in region_set)
        if not targets_pool:
            break  # the whole region is workload-free; nothing to move
        step_limit = max(1, int(round(math.log(len(targets_pool)))) or 1)
        step = min(int(rng.integers(1, step_limit + 1)), len(targets_pool))
        chosen = rng.choice(targets_pool, size=step, replace=False)
        targets = [int(v) for v in np.atleast_1d(chosen)]

        record = selection.apply_transfer(heaviest, targets)
        objective_after = max(len(selected[vertex]) for vertex in region_ids)
        comparisons += 1  # the objective-difference comparison
        difference = objective_before - objective_after
        if rng.random() < min(1.0, math.exp(min(difference, 50))):
            accepted += 1
            moves += len(targets)
        else:
            selection.undo_transfer(heaviest, record)
    if accountant is not None and comparisons:
        _charge_analytic_comparisons(accountant, comparisons, bit_width=bit_width)
    return {"accepted": accepted, "moves": moves, "comparisons": comparisons}


def fresh_assignment(
    neighbors: Mapping[int, Iterable[int]],
    mcmc_iterations: int,
    seed: int,
) -> Tuple[Dict[int, List[int]], TranscriptAccountant]:
    """From-scratch construction over an arbitrary adjacency.

    Renumbers the present devices to ``0..m-1`` (a ``FederatedEnvironment``'s
    device ids are its CSR row indices), runs the full
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
        assignment: MaintainedSelection,
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
    ) -> "MaintainedTree":
        """Wrap a construction result; journal a genesis snapshot if enabled.

        The selection must name exactly the adjacency's devices, each with a
        subset of its neighbours (``ValueError`` otherwise): no mutation
        reaches another state.  Coverage and adjacency symmetry are not
        checked here.
        """
        if journal is not None and snapshots is None:
            raise ValueError("journaling requires a snapshot store (genesis state)")
        neighbors = {int(v): set(map(int, adjacent)) for v, adjacent in adjacency.items()}
        selected = {int(v): set(map(int, chosen)) for v, chosen in assignment_lists.items()}
        if selected.keys() != neighbors.keys():
            stray = sorted(selected.keys() ^ neighbors.keys())[0]
            raise ValueError(
                f"device {stray} is in only one of the selection and the adjacency"
            )
        strangers = [v for v, chosen in selected.items() if not chosen.issubset(neighbors[v])]
        if strangers:
            raise ValueError(f"device {strangers[0]} selects a vertex that is not its neighbour")
        genesis = hashlib.sha256(b"lumos-maintenance-genesis").hexdigest()
        tree = cls(
            neighbors,
            MaintainedSelection(selected),
            config,
            rng=np.random.default_rng(config.seed),
            ledger=CommunicationLedger(),
            accountant=TranscriptAccountant(),
            seq=0,
            chain=genesis,
            journal=journal,
            snapshots=snapshots,
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
    ) -> "MaintainedTree":
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state["rng_state"]
        return cls(
            {int(v): set(adj) for v, adj in state["neighbors"].items()},
            MaintainedSelection({int(v): set(chosen) for v, chosen in state["selected"].items()}),
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
        )

    @classmethod
    def replay(
        cls,
        journal_path,
        snapshots: ArtifactStore,
        *,
        records: Optional[List[Dict[str, Any]]] = None,
        journal: Optional[MutationJournal] = None,
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
        tree = cls._from_state(state, journal=journal, snapshots=snapshots)
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
            tree._apply_record(record, _encode(record))
        return tree

    @classmethod
    def recover(cls, journal_path, snapshots: ArtifactStore) -> "MaintainedTree":
        """Crash recovery: truncate the torn journal tail, replay, reattach.

        The returned tree keeps appending to the *same* journal, so the
        replay contract keeps holding after recovery.
        """
        journal, records = MutationJournal.recover(journal_path)
        return cls.replay(journal_path, snapshots, records=records, journal=journal)

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
        neighbors, selected = self.neighbors, self.assignment.selected
        _hash_chunks(hasher, (f"adj:{v}:{sorted(neighbors[v])}" for v in sorted(neighbors)))
        _hash_chunks(hasher, (f"sel:{v}:{sorted(selected[v])}" for v in sorted(selected)))
        hasher.update(repr(self.rng.bit_generator.state).encode("utf-8"))
        hasher.update(_transcript_digest(self.ledger.message_records()).encode("utf-8"))
        hasher.update(
            f"rounds={self.ledger.current_round};"
            f"dropped={len(self.ledger.dropped)}".encode("utf-8")
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
        device = _integer(device, "a device id")
        if device in self.neighbors:
            raise ValueError(f"device {device} is already present")
        # Membership lookups only: O(requested degree), never O(devices).
        applied = sorted(
            set(filter(self.neighbors.__contains__, _device_ids(neighbors))) - {device}
        )
        self._commit(
            {"seq": self.seq + 1, "op": "insert", "device": device, "neighbors": applied}
        )
        return applied

    def remove_device(self, device: int) -> None:
        """Leave: drop ``device`` and every edge (and selection) touching it."""
        device = _integer(device, "a device id")
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
        device = _integer(device, "a device id")
        add, remove = _device_ids(add), _device_ids(remove)
        if device not in self.neighbors:
            raise ValueError(f"device {device} is not present")
        current = self.neighbors[device]
        applied_add = sorted(
            set(filter(self.neighbors.__contains__, add)) - current - {device}
        )
        applied_remove = sorted(set(remove) & current)
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
        iterations = (
            self.config.rebalance_iterations
            if iterations is None
            else _count(iterations, "iterations")
        )
        if region is None:
            if not self.neighbors:
                return {"accepted": 0, "moves": 0, "comparisons": 0}
            heaviest = self.assignment.argmax_workload()
            region = {heaviest} | self.neighbors.get(heaviest, set())
        record = {
            "seq": self.seq + 1,
            "op": "rebalance",
            "region": sorted(_device_ids(region)),
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
            else _count(mcmc_iterations, "mcmc_iterations")
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
        if self.journal is None:
            payload = _encode(record)
        else:
            payload = self.journal.append(record)
        return self._apply_record(record, payload)

    def _apply_record(self, record: Dict[str, Any], payload: bytes):
        """Apply ``record`` and extend the chain over its canonical ``payload``."""
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
        self.chain = hashlib.sha256(f"{self.chain}|".encode("utf-8") + payload).hexdigest()
        return result

    # ------------------------------------------------------------------ #
    # Delta operations (shared by live mutation and replay)
    # ------------------------------------------------------------------ #
    # Every present device has a selection set (genesis, insert and rebuild
    # create one, only a removal drops it), so the ops index it directly.
    def _link(self, device: int, neighbors: List[int]) -> None:
        """Add the edges ``(device, v)`` to the neighbours' adjacency and cover
        each by its lighter endpoint (the smaller id on ties), one pass."""
        adjacency, selected = self.neighbors, self.assignment.selected
        mine = selected[device]
        for neighbor in neighbors:
            adjacency[neighbor].add(device)
            theirs = selected[neighbor]
            load, their_load = len(mine), len(theirs)
            if load < their_load or (load == their_load and device < neighbor):
                mine.add(neighbor)
            else:
                theirs.add(device)

    def _do_insert(self, device: int, neighbors: List[int]) -> List[int]:
        self.neighbors[device] = set(neighbors)
        self.assignment.selected.setdefault(device, set())
        self._link(device, neighbors)
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
        adjacency, selected = self.neighbors, self.assignment.selected
        dropped = adjacency.pop(device)
        for neighbor in dropped:
            adjacency[neighbor].discard(device)
            selected[neighbor].discard(device)
        selected.pop(device, None)
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
        adjacency, selected = self.neighbors, self.assignment.selected
        for neighbor in remove:
            adjacency[device].discard(neighbor)
            adjacency[neighbor].discard(device)
            selected[device].discard(neighbor)
            selected[neighbor].discard(device)
        adjacency[device].update(add)
        self._link(device, add)
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
        self.assignment = MaintainedSelection({v: set(chosen) for v, chosen in lists.items()})
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
