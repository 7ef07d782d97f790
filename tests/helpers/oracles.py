"""Oracles the production paths are compared against.

Every production kernel has exactly one oracle, and it lives here, not in
``src/``: Alg. 1 as the per-edge protocol loop
(:func:`greedy_initialization_reference`), Alg. 3 from scratch
(:func:`find_max_workload_device`; in secure mode over the comparison
outcomes that earlier calls stored and no transfer made stale) inside
Alg. 2 as the from-scratch loop (:func:`mcmc_run_reference`), the union
graph by per-node traversal of
one :class:`LocalGraph` per device (:func:`tree_batch_reference`, over
:func:`build_tree` / :func:`build_star`), the LDP feature exchange one scalar message
at a time (:func:`ldp_exchange_reference`) — and, for the layout of its
draws, over the dense ``(messages, d)`` uniforms
(:func:`ldp_draw_reference`, :func:`ldp_threshold_reference`) — the
millionaires' protocol one comparison and one block at a time
(:func:`secure_compare_reference`), the candidate argmax as its scalar scan
(:func:`secure_argmax_reference`), the
communication ledger's columnar tables as plain lists of rows
(:class:`LedgerOracle`), the compute backend's kernels as ``np.add.at`` /
``np.maximum.at`` accumulation (:class:`ReferenceKernels`), and every fused
GNN layer, the Lumos pooling and head and the masked loss as the composite
autograd graph of ``Tensor`` ops they replace (:func:`install_composite_forms`;
the ops only those graphs record are in ``helpers.autograd``).  The vertex
cover of Eq. 10 is checked the plain way too (:func:`edge_coverage_holds`),
and the mask ``Assignment`` is the dict of sets it replaced
(:class:`SelectionOracle`).

``TreeConstructor`` threads one ``rng`` and one ``TranscriptAccountant``
through Alg. 1 and Alg. 2; :func:`construct_with_oracles` is the same
threading over the two oracles, for the constructor-level equivalence cases
of ``test_mcmc_incremental``, ``test_greedy_batched`` and
``test_secure_batched``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core import MCMCBalancer, MCMCResult, TreeBatch, TreeConstructorConfig
from repro.core import trainer as trainer_module
from repro.core.constructor import TreeConstructionResult
from repro.core.embedding_init import EmbeddingInitializationResult
from repro.core.greedy import comparison_message_bytes
from repro.core.mcmc import _charge_analytic_comparisons
from repro.core.workload import Assignment
from repro.crypto import SecureComparator, TranscriptAccountant
from repro.crypto.ldp import OneBitMechanism, bin_assignment
from repro.federation import SERVER_ID, FederatedEnvironment, MessageKind
from repro.gnn.gat import GATLayer
from repro.gnn.gcn import GCNLayer
from repro.gnn.models import GraphInput
from repro.graph.sparse import symmetric_normalize
from repro.nn import backend as backend_module
from repro.nn import functional as F
from repro.nn.backend import PreparedEdges, PreparedMatrix
from repro.nn.shared_rows import SharedRowFeatures, densify
from repro.nn.tensor import Tensor

from .autograd import (
    div,
    gather_rows_columns,
    leaky_relu,
    log_softmax,
    mean_pool,
    relu,
    reshape,
    scatter_add,
    sub,
)


# --------------------------------------------------------------------------- #
# The selection
# --------------------------------------------------------------------------- #
@dataclass
class SelectionOracle:
    """``Assignment`` as the dict of sets it replaced: ``selected[u]`` is the
    set ``N_u`` of neighbours device ``u`` keeps."""

    selected: Dict[int, Set[int]]

    @classmethod
    def of(cls, assignment) -> "SelectionOracle":
        """The oracle's copy of a mask ``Assignment`` (or of another oracle),
        decoded one CSR position at a time."""
        if isinstance(assignment, SelectionOracle):
            return assignment.copy()
        indptr, indices, kept = assignment.indptr, assignment.indices, assignment.kept
        return cls({
            device: {int(indices[p]) for p in range(indptr[device], indptr[device + 1]) if kept[p]}
            for device in range(indptr.shape[0] - 1)
        })

    @classmethod
    def full(cls, environment: FederatedEnvironment) -> "SelectionOracle":
        """Every device keeps every neighbour (the untrimmed solution)."""
        return cls({
            device: set(neighbors_of(environment, device))
            for device in range(environment.num_devices)
        })

    def copy(self) -> "SelectionOracle":
        return SelectionOracle({device: set(chosen) for device, chosen in self.selected.items()})

    def mask(self, environment: FederatedEnvironment) -> np.ndarray:
        """The selection as the bool mask over the environment's CSR positions."""
        return np.array([
            neighbor in self.selected.get(device, ())
            for device in range(environment.num_devices)
            for neighbor in neighbors_of(environment, device)
        ], dtype=bool)

    def workloads(self) -> Dict[int, int]:
        return {device: len(chosen) for device, chosen in self.selected.items()}

    def workload_array(self) -> np.ndarray:
        size = max(self.selected) + 1 if self.selected else 0
        array = np.zeros(size, dtype=np.int64)
        for device, chosen in self.selected.items():
            array[device] = len(chosen)
        return array

    def objective(self) -> int:
        return max((len(chosen) for chosen in self.selected.values()), default=0)

    def total_selected_edges(self) -> int:
        return sum(len(chosen) for chosen in self.selected.values())

    def as_lists(self) -> Dict[int, List[int]]:
        return {device: sorted(chosen) for device, chosen in self.selected.items()}

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        ordered = sorted((u, v) for u, chosen in self.selected.items() for v in chosen)
        array = np.array(ordered, dtype=np.int64).reshape(-1, 2)
        return array[:, 0], array[:, 1]

    def covers_all_edges(self, graph) -> bool:
        """Eq. 10 for every edge of ``graph``: one endpoint keeps the other."""
        return all(
            int(v) in self.selected.get(int(u), ()) or int(u) in self.selected.get(int(v), ())
            for u, v in graph.edges
        )

    def apply_transfer(self, source: int, targets: Sequence[int]) -> List[Tuple[int, bool]]:
        """The transition of Eq. 17 in place; ``(target, added)`` per target."""
        record = []
        for target in targets:
            if target not in self.selected.get(source, ()):
                raise ValueError(f"vertex {target} is not selected by device {source}")
            self.selected[source].discard(target)
            added = source not in self.selected.setdefault(target, set())
            self.selected[target].add(source)
            record.append((target, added))
        return record

    def undo_transfer(self, source: int, record: List[Tuple[int, bool]]) -> None:
        for target, added in reversed(record):
            if added:
                self.selected[target].discard(source)
            self.selected[source].add(target)

    def transfer(self, source: int, targets: Sequence[int]) -> "SelectionOracle":
        """A new selection after the k-step transition of Eq. 17."""
        result = self.copy()
        result.apply_transfer(source, targets)
        return result


def assignment_from_lists(environment: FederatedEnvironment, lists) -> Assignment:
    """The mask ``Assignment`` over ``environment`` keeping ``lists[u]`` for
    every device ``u`` the mapping names (a non-neighbour is a ``ValueError``)."""
    oracle = SelectionOracle({int(u): set(map(int, chosen)) for u, chosen in lists.items()})
    mask = oracle.mask(environment)
    if int(mask.sum()) != oracle.total_selected_edges():
        raise ValueError(f"{lists} names a pair that is no edge of the CSR")
    return Assignment(*environment.adjacency_csr(), mask)


def full_assignment(environment: FederatedEnvironment) -> Assignment:
    """The untrimmed mask ``Assignment``: every device keeps every neighbour."""
    indptr, indices = environment.adjacency_csr()
    return Assignment(indptr, indices, np.ones(indices.shape[0], dtype=bool))


# --------------------------------------------------------------------------- #
# Alg. 1
# --------------------------------------------------------------------------- #
def greedy_initialization_reference(
    environment: FederatedEnvironment,
    accountant: Optional[TranscriptAccountant] = None,
    bit_width: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> SelectionOracle:
    """Alg. 1 as the per-edge protocol loop — the equivalence suites' oracle.

    Every directed neighbour relation runs one :func:`secure_compare_reference`
    on the two :func:`log_degree_bucket_reference` values and logs its two
    ledger messages individually.
    """
    accountant = accountant if accountant is not None else TranscriptAccountant()
    comparator = SecureComparator(bit_width=bit_width, accountant=accountant)

    degrees = np.diff(environment.indptr).tolist()
    selected: Dict[int, Set[int]] = {device_id: set() for device_id in range(len(degrees))}

    for device_id, own_degree in enumerate(degrees):
        for neighbor in neighbors_of(environment, device_id):
            neighbor_degree = degrees[neighbor]
            # Line 4 of Alg. 1: keep v when round(ln deg(v)) >= round(ln deg(u)).
            bits_before = accountant.bits
            keep = secure_compare_reference(
                comparator,
                log_degree_bucket_reference(neighbor_degree),
                log_degree_bucket_reference(own_degree),
            )
            size_bytes = comparison_message_bytes(accountant.bits - bits_before)
            exchange(
                environment, device_id, neighbor, MessageKind.SECURE_COMPARISON, size_bytes,
                description="greedy-degree-comparison",
            )
            exchange(
                environment, neighbor, device_id, MessageKind.SECURE_COMPARISON, size_bytes,
                description="greedy-degree-comparison",
            )
            if keep:
                selected[device_id].add(neighbor)
    return _install(environment, selected)


def _install(environment: FederatedEnvironment, selected: Dict[int, Set[int]]) -> SelectionOracle:
    """Wrap the selected sets and install them on the environment."""
    assignment = SelectionOracle(selected)
    environment.apply_assignment(assignment.mask(environment))
    return assignment


def neighbors_of(environment: FederatedEnvironment, device_id: int) -> List[int]:
    """Device ``device_id``'s neighbours: its row of the environment's CSR."""
    indptr, indices = environment.adjacency_csr()
    return indices[indptr[device_id] : indptr[device_id + 1]].tolist()


def installed_selection(environment: FederatedEnvironment) -> Dict[int, List[int]]:
    """``device -> sorted kept neighbours`` of the installed selection, every
    device listed (decoded from the mask ``environment.selection``)."""
    kept = iter(environment.selection.tolist())
    return {
        device_id: [v for v in neighbors_of(environment, device_id) if next(kept)]
        for device_id in range(environment.num_devices)
    }


def exchange(environment, sender, recipient, kind, size_bytes, description="") -> None:
    """One device-to-device message: ``exchange_many`` of one pair."""
    environment.exchange_many(
        np.array([sender]), np.array([recipient]), kind, size_bytes, description
    )


def charge_compute(environment, device_id: int, cost: float, description: str = "") -> None:
    """Charge ``cost`` units of computation to device ``device_id``."""
    environment.ledger.compute(device_id, cost, description)


def edge_coverage_holds(environment: FederatedEnvironment) -> bool:
    """The constraint of Eq. 10 on the installed selection: every edge is
    kept by at least one of its endpoints."""
    selected = installed_selection(environment)
    for device_id in range(environment.num_devices):
        for neighbor in neighbors_of(environment, device_id):
            kept_here = neighbor in selected[device_id]
            kept_there = device_id in selected[neighbor]
            if not (kept_here or kept_there):
                return False
    return True


# --------------------------------------------------------------------------- #
# Alg. 3 and Alg. 2
# --------------------------------------------------------------------------- #
def find_max_workload_device(
    environment: FederatedEnvironment,
    assignment: SelectionOracle,
    comparator: Optional[SecureComparator] = None,
    rng: Optional[np.random.Generator] = None,
    accountant: Optional[TranscriptAccountant] = None,
    bit_width: int = 24,
    outcomes: Optional[Dict[Tuple[int, int], bool]] = None,
) -> int:
    """Alg. 3: return the id of the device with the maximum workload.

    When ``comparator`` is provided, every comparison runs the protocol one
    at a time (:func:`secure_compare_reference`, :func:`secure_argmax_reference`)
    and is charged to the comparator's accountant; otherwise they run in the
    clear, vectorised, and their cost is charged analytically to
    ``accountant`` (when given) at ``bit_width``.  Both modes record one
    transcript: one ledger message per candidate announcement and per
    maximum announcement.

    ``outcomes`` holds the bit of every ``(device, neighbour)`` comparison
    an earlier call executed whose two workloads no transfer has moved
    since: a scan reuses a stored bit instead of running the protocol
    (and counts it as ``crypto.comparisons_reused``), and stores every bit
    it executes.  The caller drops the pairs of the moved devices at every
    transition (:func:`invalidate_outcomes`); without it a call starts cold.
    """
    rng = rng if rng is not None else environment.rng
    workloads = assignment.workloads()

    # Part 1 (device operation 1): each device compares its workload with its
    # ego-network neighbours and announces candidacy to the server.
    candidates: List[int] = []
    total_neighbor_comparisons = 0
    if comparator is None:
        workload_array = np.asarray(
            [workloads[device_id] for device_id in range(environment.num_devices)],
            dtype=np.int64,
        )
        sources, destinations = environment.directed_edges()
        neighbor_max = np.zeros_like(workload_array)
        if sources.size:
            np.maximum.at(neighbor_max, sources, workload_array[destinations])
        total_neighbor_comparisons = int(sources.size)
        candidates = np.flatnonzero(workload_array >= neighbor_max).tolist()
    else:
        outcomes = {} if outcomes is None else outcomes
        reused = 0
        for device_id in range(environment.num_devices):
            neighbors = neighbors_of(environment, device_id)
            total_neighbor_comparisons += len(neighbors)
            # Device operation 1: am I >= every neighbour?  The scan stops
            # at the first neighbour that is greater.
            for other in neighbors:
                pair = (device_id, other)
                if pair in outcomes:
                    reused += 1
                else:
                    outcomes[pair] = secure_compare_reference(
                        comparator, workloads[device_id], workloads[other]
                    )
                if not outcomes[pair]:
                    break
            else:
                candidates.append(device_id)
        obs.add_counter("crypto.comparisons_reused", reused)
    for device_id in range(environment.num_devices):
        environment.ledger.send(
            sender=device_id,
            recipient=SERVER_ID,
            kind=MessageKind.SERVER_COORDINATION,
            size_bytes=1,
            description="candidate-announcement",
        )

    # Part 2 (device operation 2): candidates compare among themselves; the
    # winners (possibly several on ties) report to the server which picks one.
    if not candidates:
        # Only a federation without devices has no candidate: "device 0",
        # which selects nothing, wins.
        candidates = [0]
    candidate_workloads = [workloads.get(c, 0) for c in candidates]
    pairwise_comparisons = len(candidates) * max(len(candidates) - 1, 0)
    maximum_value = max(candidate_workloads)
    winners = [c for c, w in zip(candidates, candidate_workloads) if w == maximum_value]
    if comparator is not None:
        # Run the comparisons so the secure transcript is exact.
        winner_index = secure_argmax_reference(comparator, candidate_workloads)
        if candidate_workloads[winner_index] != maximum_value:
            raise RuntimeError("secure argmax disagrees with plaintext maximum")

    if accountant is not None and comparator is None:
        _charge_analytic_comparisons(
            accountant, total_neighbor_comparisons + pairwise_comparisons, bit_width=bit_width
        )
    _charge_comparison_traffic(environment, total_neighbor_comparisons + pairwise_comparisons)
    for device_id in winners:
        environment.ledger.send(
            sender=device_id,
            recipient=SERVER_ID,
            kind=MessageKind.SERVER_COORDINATION,
            size_bytes=1,
            description="maximum-announcement",
        )
    return int(environment.server.pick_maximum(winners))


def _charge_comparison_traffic(environment: FederatedEnvironment, count: int) -> None:
    """Charge one Alg. 3 call's secure-comparison traffic as one server row."""
    environment.ledger.send(
        sender=SERVER_ID,
        recipient=SERVER_ID,
        kind=MessageKind.SECURE_COMPARISON,
        size_bytes=count * 8,
        description="alg3-comparisons",
    )


def invalidate_outcomes(
    outcomes: Dict[Tuple[int, int], bool], source: int, targets: Sequence[int]
) -> None:
    """Drop the stored comparisons that a transfer of ``targets`` from
    ``source`` (proposed, accepted or undone) made stale: every pair
    holding a moved device."""
    moved = {source, *targets}
    for pair in [pair for pair in outcomes if pair[0] in moved or pair[1] in moved]:
        del outcomes[pair]


def mcmc_run_reference(self: MCMCBalancer, initial) -> MCMCResult:
    """Alg. 2 as the from-scratch loop — the oracle of ``MCMCBalancer.run``.

    Takes the balancer as ``self``: it reads the balancer's environment, rng,
    accountant and (in secure mode) comparator.  ``initial`` is a mask
    ``Assignment`` or a :class:`SelectionOracle`; the result holds the
    oracle.  Alg. 3's executed comparisons are stored across calls and
    reused until a transition moves one of their devices (``outcomes``):
    its pairs are dropped when it is proposed and again when it is
    accepted or rejected.
    """
    current = SelectionOracle.of(initial)
    history = [current.objective()]
    accepted = 0
    outcomes: Dict[Tuple[int, int], bool] = {}

    for iteration in range(self.iterations):
        # Line 2: device with the largest workload under X_t.
        heaviest = find_max_workload_device(
            self.environment,
            current,
            comparator=self._comparator,
            rng=self.rng,
            accountant=self.accountant,
            bit_width=self.bit_width,
            outcomes=outcomes,
        )
        source_neighbors = sorted(current.selected.get(heaviest, set()))
        if not source_neighbors:
            history.append(current.objective())
            continue

        # Lines 3-4: sample the step size k and the k neighbours to move.
        step_limit = max(1, int(round(math.log(len(source_neighbors)))) or 1)
        step = int(self.rng.integers(1, step_limit + 1))
        step = min(step, len(source_neighbors))
        chosen = self.rng.choice(source_neighbors, size=step, replace=False)
        targets = [int(v) for v in np.atleast_1d(chosen)]

        # Line 5: form X'_t with the transition of Eq. 17.
        proposal = current.transfer(heaviest, targets)
        invalidate_outcomes(outcomes, heaviest, targets)
        for target in targets:
            exchange(
                self.environment, heaviest, target, MessageKind.SERVER_COORDINATION, 8,
                description="mcmc-transition-proposal",
            )

        # Line 6: device with the largest workload under X'_t.
        heaviest_after = find_max_workload_device(
            self.environment,
            proposal,
            comparator=self._comparator,
            rng=self.rng,
            accountant=self.accountant,
            bit_width=self.bit_width,
            outcomes=outcomes,
        )

        # Line 7: f(X_t) - f(X'_t), computed between the two maximal devices.
        objective_before = current.objective()
        objective_after = proposal.objective()
        if self._comparator is not None:
            # One comparison, then the masked exchange of the subtraction.
            secure_compare_reference(self._comparator, objective_before, objective_after)
            self.accountant.record("secure-subtraction", 2 * self.bit_width)
            difference = objective_before - objective_after
        else:
            difference = objective_before - objective_after
            _charge_analytic_comparisons(self.accountant, 1, bit_width=self.bit_width)
        exchange(
            self.environment, heaviest, heaviest_after, MessageKind.SECURE_COMPARISON,
            self.bit_width // 8 or 1,
            description="mcmc-objective-difference",
        )

        # Line 8: Metropolis-Hastings acceptance (Eq. 18).
        acceptance_probability = min(1.0, math.exp(min(difference, 50)))
        if self.rng.random() < acceptance_probability:
            current = proposal
            accepted += 1
            # Line 9: the source device informs the moved neighbours.
            for target in targets:
                exchange(
                    self.environment, heaviest, target, MessageKind.SERVER_COORDINATION, 8,
                    description="mcmc-accept-notification",
                )
        # Accepted or rejected, the moved devices' pairs are dropped again,
        # so the next call's executed comparisons do not reveal the decision.
        invalidate_outcomes(outcomes, heaviest, targets)
        history.append(current.objective())
        self.environment.next_round()

    self.environment.apply_assignment(current.mask(self.environment))
    return MCMCResult(
        assignment=current,
        objective_history=history,
        accepted_transitions=accepted,
        iterations=self.iterations,
    )


def construct_with_oracles(
    environment: FederatedEnvironment,
    config: TreeConstructorConfig,
    rng: np.random.Generator,
    secure: bool = False,
) -> Tuple[SelectionOracle, MCMCResult, TranscriptAccountant]:
    """Return ``(greedy_assignment, mcmc_result, transcript)`` of the oracles."""
    transcript = TranscriptAccountant()
    greedy = greedy_initialization_reference(
        environment,
        accountant=transcript,
        bit_width=config.degree_comparison_bits,
        rng=rng,
    )
    balancer = MCMCBalancer(
        environment,
        iterations=config.mcmc_iterations,
        accountant=transcript,
        bit_width=config.workload_comparison_bits,
        secure=secure,
        rng=rng,
    )
    return greedy, mcmc_run_reference(balancer, greedy), transcript


# --------------------------------------------------------------------------- #
# Local graphs and the union graph
# --------------------------------------------------------------------------- #
class NodeRole(Enum):
    """Role of a node inside a local (per-device) graph."""

    CENTER_LEAF = "center_leaf"
    NEIGHBOR_LEAF = "neighbor_leaf"
    PARENT = "parent"
    ROOT = "root"
    CENTER = "center"  # used by the star (no-virtual-node) variant


@dataclass(frozen=True)
class LocalNode:
    """One node of a local graph: ``vertex`` is the global vertex id the node
    refers to, or ``None`` for virtual nodes."""

    local_id: int
    role: NodeRole
    vertex: Optional[int]


@dataclass
class LocalGraph:
    """One device's tree (or star), node by node."""

    owner: int
    nodes: List[LocalNode]
    edges: List[Tuple[int, int]]

    def __post_init__(self) -> None:
        ids = [node.local_id for node in self.nodes]
        if ids != list(range(len(self.nodes))):
            raise ValueError("local node ids must be consecutive starting at 0")
        for u, v in self.edges:
            if not (0 <= u < len(self.nodes) and 0 <= v < len(self.nodes)):
                raise ValueError("edge endpoint out of range")
            if u == v:
                raise ValueError("self loops are not allowed in local graphs")

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def leaves(self) -> List[LocalNode]:
        """All nodes that refer to a global vertex (leaf pairs or star nodes)."""
        return [node for node in self.nodes if node.vertex is not None]

    def nodes_for_vertex(self, vertex: int) -> List[LocalNode]:
        """All local nodes referring to global ``vertex``."""
        return [node for node in self.nodes if node.vertex == vertex]

    def neighbor_vertices(self) -> List[int]:
        """Global ids of the neighbour vertices present in this local graph."""
        return sorted({node.vertex for node in self.nodes if node.role is NodeRole.NEIGHBOR_LEAF})

    def depth(self) -> int:
        """Longest path (in edges) from the root (or star centre) to any node."""
        if not self.edges:
            return 0
        adjacency: Dict[int, List[int]] = {node.local_id: [] for node in self.nodes}
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        roots = [n.local_id for n in self.nodes if n.role in (NodeRole.ROOT, NodeRole.CENTER)]
        root = roots[0] if roots else 0
        depth = {root: 0}
        frontier = [root]
        while frontier:  # breadth-first from the root
            next_frontier = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in depth:
                        depth[neighbor] = depth[node] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return max(depth.values())

    def is_tree(self) -> bool:
        """Whether the local graph is connected and acyclic."""
        if self.num_nodes == 0:
            return True
        if self.num_edges != self.num_nodes - 1:
            return False
        parent = list(range(self.num_nodes))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            parent[find(u)] = find(v)
        return len({find(x) for x in range(self.num_nodes)}) == 1


def build_tree(owner: int, neighbors: Sequence[int]) -> LocalGraph:
    """The Lumos tree ``T(owner)`` over the selected ``neighbors`` (Fig. 2):
    one root, one parent per leaf pair, one centre-leaf replica and one
    neighbour leaf per pair.  An empty selection still gets a one-node graph
    (the owner's centre leaf) so its own feature participates in pooling."""
    if not neighbors:
        return LocalGraph(owner, [LocalNode(0, NodeRole.CENTER_LEAF, owner)], [])
    nodes = [LocalNode(0, NodeRole.ROOT, None)]
    edges: List[Tuple[int, int]] = []
    for neighbor in neighbors:
        parent = len(nodes)
        nodes += [
            LocalNode(parent, NodeRole.PARENT, None),
            LocalNode(parent + 1, NodeRole.CENTER_LEAF, owner),
            LocalNode(parent + 2, NodeRole.NEIGHBOR_LEAF, int(neighbor)),
        ]
        edges += [(0, parent), (parent, parent + 1), (parent, parent + 2)]
    return LocalGraph(owner, nodes, edges)


def build_star(owner: int, neighbors: Sequence[int]) -> LocalGraph:
    """The plain ego star of the "Lumos w.o. VN" ablation: the centre joined
    directly to each selected neighbour, no virtual nodes, no replication."""
    nodes = [LocalNode(0, NodeRole.CENTER, owner)]
    nodes += [
        LocalNode(offset, NodeRole.NEIGHBOR_LEAF, int(neighbor))
        for offset, neighbor in enumerate(neighbors, start=1)
    ]
    return LocalGraph(owner, nodes, [(0, offset) for offset in range(1, len(nodes))])


def expected_tree_size(workload: int) -> int:
    """Number of nodes of a Lumos tree for a given workload (3*wl + 1)."""
    if workload < 0:
        raise ValueError("workload must be non-negative")
    return 1 if workload == 0 else 3 * workload + 1


def count_leaves(local_graph: LocalGraph) -> int:
    """Number of leaf nodes referring to real vertices (2 * workload for trees)."""
    centers = any(node.role is NodeRole.CENTER for node in local_graph.nodes)
    return len(local_graph.leaves()) - centers


def canonical_local_graphs(construction: TreeConstructionResult) -> Dict[int, LocalGraph]:
    """``device -> LocalGraph`` of a construction: :func:`build_tree` (or
    :func:`build_star`) over each device's sorted selected neighbours."""
    build = build_tree if construction.used_virtual_nodes else build_star
    selected = construction.assignment.as_lists()
    return {
        device_id: build(device_id, selected.get(device_id, []))
        for device_id in range(construction.num_devices)
    }


def device_slices(construction: TreeConstructionResult) -> Dict[int, Tuple[int, int]]:
    """``device -> (first row, node count)`` of its tree in a ``TreeBatch``,
    whose trees sit one after another in device id order."""
    slices: Dict[int, Tuple[int, int]] = {}
    offset = 0
    for device_id, local_graph in canonical_local_graphs(construction).items():
        slices[device_id] = (offset, local_graph.num_nodes)
        offset += local_graph.num_nodes
    return slices


def tree_batch_reference(
    environment: FederatedEnvironment,
    construction: TreeConstructionResult,
    initialization: EmbeddingInitializationResult,
    feature_dim: int,
) -> TreeBatch:
    """``TreeBatch.build`` by per-node traversal of the local graphs.

    Reads :func:`canonical_local_graphs` node by node, where the production
    path derives the same layout from the workloads.
    """
    cls = TreeBatch
    rows: List[int] = []
    cols: List[int] = []
    leaf_rows: List[int] = []
    leaf_vertices: List[int] = []
    neighbor_receivers: List[int] = []
    neighbor_senders: List[int] = []
    feature_rows: List[int] = []
    offset = 0
    num_devices = environment.num_devices

    for device_id, local_graph in canonical_local_graphs(construction).items():
        size = local_graph.num_nodes

        feature_rows.extend([-1] * size)
        for node in local_graph.nodes:
            global_row = offset + node.local_id
            if node.vertex is None:
                continue
            leaf_rows.append(global_row)
            leaf_vertices.append(int(node.vertex))
            if node.vertex == device_id:
                feature_rows[global_row] = device_id
            else:
                feature_rows[global_row] = num_devices + len(neighbor_receivers)
                neighbor_receivers.append(device_id)
                neighbor_senders.append(int(node.vertex))

        for u, v in local_graph.edges:
            rows.append(offset + u)
            cols.append(offset + v)
            rows.append(offset + v)
            cols.append(offset + u)
        offset += size

    num_nodes = offset
    data = np.ones(len(rows), dtype=np.float64)
    adjacency_raw = sp.csr_matrix(
        (data, (np.asarray(rows), np.asarray(cols))), shape=(num_nodes, num_nodes)
    )
    adjacency = symmetric_normalize(adjacency_raw, self_loops=True)
    src = np.concatenate([np.asarray(cols, dtype=np.int64), np.arange(num_nodes)])
    dst = np.concatenate([np.asarray(rows, dtype=np.int64), np.arange(num_nodes)])
    edge_index = np.stack([src, dst])

    receivers = np.asarray(neighbor_receivers, dtype=np.int64)
    senders = np.asarray(neighbor_senders, dtype=np.int64)
    batch = cls(
        num_nodes=num_nodes,
        num_vertices=num_devices,
        adjacency=adjacency,
        layer_input=cls._factored(
            np.asarray(feature_rows, dtype=np.int64),
            cls._own_features(environment, feature_dim),
            initialization,
            receivers,
            senders,
        ),
        leaf_rows=np.asarray(leaf_rows, dtype=np.int64),
        leaf_vertices=np.asarray(leaf_vertices, dtype=np.int64),
        neighbor_receivers=receivers,
        neighbor_senders=senders,
    )
    # The traversal's own edges, where production derives them from the
    # adjacency on first read: comparing the two compares the derivations.
    batch._derived["edge_index"] = edge_index
    return batch


class FeatureBinPartitioner:
    """Random partition of the ``d`` feature indices into ``wl`` bins, as masks.

    The per-sender view of :func:`repro.crypto.ldp.bin_assignment` (same
    draw) the one-message-at-a-time oracles read their bins from.
    """

    def __init__(
        self, dimension: int, num_bins: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.dimension = dimension
        self.num_bins = num_bins
        self.assignment = bin_assignment(dimension, num_bins, rng)

    def mask_for_bin(self, bin_index: int) -> np.ndarray:
        """Boolean mask of the feature indices that belong to ``bin_index``."""
        if not 0 <= bin_index < self.num_bins:
            raise ValueError(f"bin index {bin_index} out of range [0, {self.num_bins})")
        return self.assignment == bin_index

    def masks(self) -> Sequence[np.ndarray]:
        """All bin masks in order."""
        return [self.mask_for_bin(index) for index in range(self.num_bins)]


def ldp_exchange_reference(
    environment: FederatedEnvironment,
    assignment: Assignment,
    epsilon: float,
    bounds,
    rng: np.random.Generator,
) -> Dict[Tuple[int, int], np.ndarray]:
    """The feature exchange one message at a time: ``(receiver, sender) -> row``.

    One scalar ``OneBitMechanism.encode`` + ``recover`` per message, one
    :func:`exchange` per message and one :func:`charge_compute` per sender —
    the oracle of the columnar ``LDPEmbeddingInitializer.draw`` / ``threshold``.
    """
    mechanism = OneBitMechanism(epsilon=epsilon, bounds=bounds)
    requesters: Dict[int, list] = {device_id: [] for device_id in range(environment.num_devices)}
    lists = assignment.as_lists()
    for receiver, chosen in lists.items():
        for sender in chosen:
            requesters[int(sender)].append(int(receiver))
    rows: Dict[Tuple[int, int], np.ndarray] = {}
    for sender, receivers in requesters.items():
        feature = environment.features[sender]
        dimension = feature.shape[0]
        workload = max(len(lists.get(sender, ())), 1)
        partitioner = FeatureBinPartitioner(dimension, workload, rng=rng)
        for rank, receiver in enumerate(sorted(receivers)):
            selected = partitioner.mask_for_bin(rank % workload)
            bits = mechanism.encode(feature, workload, dimension=dimension, rng=rng)
            encoded = np.where(selected, bits, mechanism.NEUTRAL)
            rows[(receiver, sender)] = mechanism.recover(encoded, workload, dimension=dimension)
            exchange(
                environment, sender, receiver, MessageKind.FEATURE_EXCHANGE,
                max(1, (2 * dimension) // 8), description="ldp-feature",
            )
        charge_compute(environment, sender, 0.1 * len(receivers), description="ldp-encoding")
    return rows


@dataclass
class DenseLDPDraws:
    """The feature exchange's draws kept whole: device ``i``'s bin partition
    ``bins[i]`` and every drawn uniform, ``(messages, d)`` in stream order."""

    workloads: np.ndarray
    bins: np.ndarray
    offsets: np.ndarray
    receivers: np.ndarray
    uniforms: np.ndarray

    def released(self) -> np.ndarray:
        """``(messages, d)`` mask of the positions each message releases, in
        stream order: bin ``k mod wl(s)`` to sender ``s``'s ``k``-th receiver."""
        counts = np.diff(self.offsets)
        stream_sender = np.repeat(np.arange(counts.shape[0]), counts)
        rank = (
            np.arange(stream_sender.shape[0]) - self.offsets[stream_sender]
        ) % self.workloads[stream_sender]
        return self.bins[stream_sender] == rank.astype(self.bins.dtype)[:, None]

    def released_uniforms(self) -> sp.csr_matrix:
        """The uniforms at the released positions, as ``LDPDrawsResult`` keeps them."""
        released = self.released()
        rows, cols = np.nonzero(released)
        indptr = np.concatenate([[0], np.cumsum(released.sum(axis=1))])
        return sp.csr_matrix((self.uniforms[rows, cols], cols, indptr), shape=released.shape)


def ldp_draw_reference(initializer, environment, assignment) -> DenseLDPDraws:
    """``LDPEmbeddingInitializer.draw`` with every uniform kept: per sender, the
    partition, then one ``(receivers, d)`` block of the dense array."""
    num_devices, dimension = environment.features.shape
    receivers, senders = assignment.pairs()
    order = np.argsort(senders, kind="stable")
    offsets = np.zeros(num_devices + 1, dtype=np.int64)
    np.cumsum(np.bincount(senders, minlength=num_devices), out=offsets[1:])
    workloads = np.maximum(assignment.workload_array(), 1)
    workloads = workloads.astype(np.min_scalar_type(int(workloads.max(initial=1))))
    bins = np.empty((num_devices, dimension), dtype=workloads.dtype)
    uniforms = np.empty((order.shape[0], dimension), dtype=np.float64)
    for index, (workload, start, stop) in enumerate(
        zip(workloads.tolist(), offsets[:-1].tolist(), offsets[1:].tolist())
    ):
        bins[index] = FeatureBinPartitioner(dimension, workload, rng=initializer.rng).assignment
        if stop > start:
            initializer.rng.random(out=uniforms[start:stop])
    return DenseLDPDraws(workloads, bins, offsets, receivers[order], uniforms)


def ldp_threshold_reference(
    initializer, environment, draws: DenseLDPDraws
) -> EmbeddingInitializationResult:
    """``LDPEmbeddingInitializer.threshold`` over the dense draws: the released
    mask of every message, reordered receiver-major, selects what to encode."""
    dimension = draws.bins.shape[1]
    counts = np.diff(draws.offsets)
    stream_sender = np.repeat(np.arange(counts.shape[0]), counts)
    order = np.lexsort((stream_sender, draws.receivers))
    senders = stream_sender[order]
    released = draws.released()[order]
    rows, cols = np.divmod(np.flatnonzero(released), dimension)
    features = environment.features
    recovered = initializer.mechanism.release(
        features[senders[rows], cols],
        draws.uniforms[order[rows], cols],
        draws.workloads[senders[rows]],
        dimension,
    )
    indptr = np.zeros(order.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=order.shape[0]), out=indptr[1:])
    size_bytes = max(1, (2 * dimension) // 8)
    receivers = draws.receivers[order]
    environment.exchange_many(
        senders, receivers, MessageKind.FEATURE_EXCHANGE, size_bytes, description="ldp-feature"
    )
    environment.ledger.compute_many(
        np.arange(counts.shape[0]), 0.1 * counts, description="ldp-encoding"
    )
    return EmbeddingInitializationResult(
        receivers=receivers,
        senders=senders,
        released=sp.csr_matrix((recovered, cols, indptr), shape=released.shape),
        midpoint=initializer.bounds.midpoint,
        messages_sent=int(order.shape[0]),
        epsilon=initializer.epsilon,
    )


def received_features(
    initialization: EmbeddingInitializationResult,
) -> Dict[int, Dict[int, np.ndarray]]:
    """``receiver -> {sender: recovered feature}`` over every message (dense)."""
    table: Dict[int, Dict[int, np.ndarray]] = {}
    receivers, senders, rows = initialization.packed()
    for receiver, sender, row in zip(receivers.tolist(), senders.tolist(), rows):
        table.setdefault(receiver, {})[sender] = row
    return table


# --------------------------------------------------------------------------- #
# Secure comparison
# --------------------------------------------------------------------------- #
def secure_compare_reference(comparator: SecureComparator, left: int, right: int) -> bool:
    """One millionaires' comparison ``left >= right``, one block at a time.

    The oracle of ``SecureComparator.execute_batch`` + ``charge_batch``:
    both operands split into big-endian ``BLOCK_BITS`` blocks; party A
    obtains each block's greater-than and equality share through a
    1-out-of-2^m OT on party B's explicit truth table, charged as it runs
    (one ``ot-n`` record each); a logarithmic AND/OR tree combines the shares
    (one ``and-gate`` record per node).  The comparator's accountant and the
    obs counters see what one comparison of a batch charges.
    """
    bit_width, block_bits = comparator.bit_width, comparator.BLOCK_BITS
    for name, value in (("left", left), ("right", right)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
        if value >= 1 << bit_width:
            raise ValueError(f"{name} does not fit in {bit_width} bits")
    accountant = comparator.accountant
    table_size = 1 << block_bits
    greater: List[bool] = []
    equal: List[bool] = []
    for index in reversed(range(-(-bit_width // block_bits))):
        left_block = (int(left) >> (index * block_bits)) & (table_size - 1)
        right_block = (int(right) >> (index * block_bits)) & (table_size - 1)
        for shares, table in (
            (greater, [candidate > right_block for candidate in range(table_size)]),
            (equal, [candidate == right_block for candidate in range(table_size)]),
        ):
            # The receiver learns table[left_block] and nothing else.
            accountant.ot_invocations += 1
            obs.add_counter("crypto.ot_invocations")
            accountant.record("ot-n", table_size + 128)
            shares.append(table[left_block])
    while len(greater) > 1:
        next_greater: List[bool] = []
        next_equal: List[bool] = []
        for index in range(0, len(greater) - 1, 2):
            # gt = gt_high OR (eq_high AND gt_low); eq = eq_high AND eq_low
            accountant.record("and-gate", 2 * block_bits)
            next_greater.append(greater[index] or (equal[index] and greater[index + 1]))
            next_equal.append(equal[index] and equal[index + 1])
        if len(greater) % 2 == 1:
            next_greater.append(greater[-1])
            next_equal.append(equal[-1])
        greater, equal = next_greater, next_equal
    accountant.comparisons += 1
    obs.add_counter("crypto.comparisons")
    return greater[0] or equal[0]


def secure_argmax_reference(comparator: SecureComparator, values) -> int:
    """The scalar scan that secure Alg. 3 runs as one verified batch
    (``argmax_pairs`` / ``argmax_from_outcomes``).

    One :func:`secure_compare_reference` per position against the best so
    far; ties resolve to the earliest index.
    """
    if len(values) == 0:
        raise ValueError("argmax of an empty list")
    best_index = 0
    for index in range(1, len(values)):
        won = secure_compare_reference(comparator, values[index], values[best_index])
        # Equal values keep the earlier index (deterministic tie-break).
        if won and values[index] != values[best_index]:
            best_index = index
    return best_index


def log_degree_bucket_reference(degree: int) -> int:
    """``round(ln(degree))`` of one degree, 0 for degree 0 — Alg. 1's bucket."""
    return int(round(math.log(degree))) if degree > 0 else 0


#: The only transcript entries the comparison protocols write: message
#: descriptions and sizes, never an operand.
ZERO_KNOWLEDGE_ENTRIES = ("ot-n", "and-gate", "secure-subtraction")


def transcript_reveals_only_sizes(accountant: TranscriptAccountant) -> bool:
    """Whether every logged entry is a whitelisted ``description:bits`` pair."""
    return all(
        entry.split(":")[0] in ZERO_KNOWLEDGE_ENTRIES and entry.split(":")[1].isdigit()
        for entry in accountant._log
    )


# --------------------------------------------------------------------------- #
# Communication ledger
# --------------------------------------------------------------------------- #
class LedgerOracle:
    """``CommunicationLedger`` as four lists of row tuples, one per table.

    Rows use the tables' layout: the column values (round first), then the
    label — ``(round, sender, recipient, size, kind, description)`` for
    messages and drops, ``(round, sender, recipient, payload, wire, kind,
    description)`` for frames, ``(round, device, cost, description)`` for
    computation.  Every bulk call is one row per position; every query is a
    loop over the rows.
    """

    def __init__(self) -> None:
        self.messages: List[tuple] = []
        self.dropped: List[tuple] = []
        self.frames: List[tuple] = []
        self.computation: List[tuple] = []
        self.current_round = 0

    def send(self, sender, recipient, kind, size_bytes, description=""):
        self.messages.append(
            (self.current_round, sender, recipient, size_bytes, kind.value, description)
        )

    def send_many(self, senders, recipients, kind, sizes, round_indices, description=""):
        for row in zip(round_indices, senders, recipients, sizes):
            self.messages.append((*row, kind.value, description))

    def drop(self, sender, recipient, kind, size_bytes, description=""):
        self.dropped.append(
            (self.current_round, sender, recipient, size_bytes, kind.value, description)
        )

    def drop_many(self, senders, recipients, kind, sizes, round_indices, description=""):
        for row in zip(round_indices, senders, recipients, sizes):
            self.dropped.append((*row, kind.value, description))

    def record_transport_frame(self, sender, recipient, kind, payload, wire, description=""):
        self.frames.append(
            (self.current_round, sender, recipient, payload, wire, kind, description)
        )

    def compute(self, device, cost, description=""):
        self.computation.append((self.current_round, device, cost, description))

    def compute_many(self, devices, costs, description=""):
        for device, cost in zip(devices, costs):
            self.compute(device, cost, description)

    def next_round(self):
        self.current_round += 1
        return self.current_round

    @staticmethod
    def shifted(rows: List[tuple], offset: int) -> List[tuple]:
        return [(row[0] + offset, *row[1:]) for row in rows]

    def message_records(self) -> List[tuple]:
        return sorted((r, s, t, kind, size, d) for r, s, t, size, kind, d in self.messages)

    def per_device_message_counts(self, num_devices: int) -> np.ndarray:
        counts = np.zeros(num_devices, dtype=np.int64)
        for _, sender, *_ in self.messages:
            if 0 <= sender < num_devices:
                counts[sender] += 1
        return counts

    def per_device_compute(self, num_devices: int) -> np.ndarray:
        costs = np.zeros(num_devices, dtype=np.float64)
        for _, device, cost, _ in self.computation:
            if 0 <= device < num_devices:
                costs[device] += cost
        return costs

    def summary(self, num_devices: Optional[int] = None) -> Dict[str, float]:
        result = {
            "total_messages": float(len(self.messages)),
            "total_bytes": float(sum(row[3] for row in self.messages)),
            "device_to_device_messages": float(
                sum(1 for row in self.messages if SERVER_ID not in (row[1], row[2]))
            ),
            "rounds": float(self.current_round),
            "total_compute": float(sum(row[2] for row in self.computation)),
        }
        if num_devices:
            result["avg_messages_per_device"] = result["device_to_device_messages"] / num_devices
        if self.dropped:
            result["dropped_messages"] = float(len(self.dropped))
            result["dropped_bytes"] = float(sum(row[3] for row in self.dropped))
        if self.frames:
            result["transport_frames"] = float(len(self.frames))
            result["transport_payload_bytes"] = float(sum(row[3] for row in self.frames))
            result["transport_wire_bytes"] = float(sum(row[4] for row in self.frames))
        for row in self.messages:
            key = f"messages_{row[4]}"
            result[key] = result.get(key, 0.0) + 1
        return result


# --------------------------------------------------------------------------- #
# Compute kernels
# --------------------------------------------------------------------------- #
def _csr(matrix) -> sp.csr_matrix:
    return matrix.csr if isinstance(matrix, PreparedMatrix) else sp.csr_matrix(matrix)


class ReferenceKernels:
    """``FastNumpyBackend``'s interface the straightforward way: per-call CSR
    conversions and transposes, unbuffered ``np.add.at`` / ``np.maximum.at``
    accumulation."""

    def prepare_matrix(self, matrix):
        return matrix

    def spmm(self, matrix, dense: np.ndarray) -> np.ndarray:
        return _csr(matrix) @ dense

    def spmm_t(self, matrix, dense: np.ndarray) -> np.ndarray:
        return _csr(matrix).T.tocsr() @ dense

    def fold_chain(self, matrices: Sequence) -> sp.csr_matrix:
        if not matrices:
            raise ValueError("fold_chain requires at least one matrix")
        product = _csr(matrices[0])
        for matrix in matrices[1:]:
            product = product @ _csr(matrix)
        return product

    def take_rows(self, data: np.ndarray, index: np.ndarray) -> np.ndarray:
        return data[index]

    def row_selection(self, index: np.ndarray, num_rows: int) -> PreparedMatrix:
        size = len(index)
        return PreparedMatrix(
            sp.csr_matrix((np.ones(size), (np.arange(size), index)), shape=(size, num_rows))
        )

    def scatter_rows(self, values: np.ndarray, index, num_rows: int) -> np.ndarray:
        if isinstance(index, PreparedMatrix):
            index = index.csr.tocoo().col
        out = np.zeros((num_rows,) + values.shape[1:], dtype=np.float64)
        np.add.at(out, index, values)
        return out

    def segment_max(self, values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
        out = np.full((num_segments,) + values.shape[1:], -np.inf)
        np.maximum.at(out, index, values)
        return out


def install_kernels(monkeypatch, kernels) -> None:
    """Make ``kernels`` what ``get_backend()`` returns for the rest of the test
    (a :class:`ReferenceKernels`, or a ``FastNumpyBackend``)."""
    monkeypatch.setattr(backend_module, "_BACKEND", kernels)


# --------------------------------------------------------------------------- #
# Composite layer graphs
# --------------------------------------------------------------------------- #
def segment_softmax(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of ``(E,)`` or ``(E, H)`` ``values`` within each segment of the
    first axis, as gather / exp / scatter-add nodes (GAT's edge softmax)."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    # The per-segment max is a constant shift within each segment: its
    # gradient contribution cancels exactly in the softmax.
    seg_max = ReferenceKernels().segment_max(values.data, segment_ids, num_segments)
    seg_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    exp_values = sub(values, seg_max[segment_ids]).exp()
    denominator = F.gather(scatter_add(exp_values, segment_ids, num_segments), segment_ids)
    return div(exp_values, denominator + 1e-16)


def composite_gcn(features, matrix, weight, bias=None, activation=None) -> Tensor:
    """``act(M (X W) + b)`` as four nodes (``F.fused_gcn_layer``'s oracle)."""
    out = F.sparse_matmul(matrix, features @ weight)
    if bias is not None:
        out = out + bias
    return relu(out) if activation == "relu" else out


def edge_rows(edges) -> Tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` of a ``(2, E)`` edge index, or of a :class:`PreparedEdges`
    plan in its destination-sorted order (the caller's order within each
    destination, so per-destination sums add in the same order)."""
    if isinstance(edges, PreparedEdges):
        return edges.src, np.repeat(np.arange(edges.num_nodes), edges.counts)
    src, dst = np.asarray(edges, dtype=np.int64)
    return src, dst


def block_positions(edge_index, num_nodes: int, num_heads: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(edge, head)`` at every position of ``PreparedEdges.blocked(num_heads)``:
    destination by destination, head by head, the destination's edges in the
    caller's order (``edge`` indexes the columns of ``edge_index``)."""
    dst = np.asarray(edge_index, dtype=np.int64)[1]
    edge: List[int] = []
    head: List[int] = []
    for node in range(num_nodes):
        incoming = np.flatnonzero(dst == node).tolist()
        for h in range(num_heads):
            edge += incoming
            head += [h] * len(incoming)
    return np.array(edge, dtype=np.int64), np.array(head, dtype=np.int64)


def composite_gat(
    features, edges, weight, attention_src, attention_dst, bias,
    num_heads, out_features, concat_heads, negative_slope=0.2, activation=None,
) -> Tensor:
    """Multi-head GAT as gather / segment-softmax / scatter nodes
    (``F.fused_gat_layer``'s oracle) over an edge index or a plan."""
    num_nodes = features.shape[0]
    src, dst = edge_rows(edges)
    transformed = reshape(features @ weight, num_nodes, num_heads, out_features)
    src_scores = (transformed * reshape(attention_src, 1, num_heads, out_features)).sum(axis=-1)
    dst_scores = (transformed * reshape(attention_dst, 1, num_heads, out_features)).sum(axis=-1)
    edge_logits = leaky_relu(F.gather(src_scores, src) + F.gather(dst_scores, dst), negative_slope)
    attention = segment_softmax(edge_logits, dst, num_nodes)  # (E, H)
    weighted = F.gather(transformed, src) * reshape(attention, -1, num_heads, 1)
    aggregated = scatter_add(weighted, dst, num_nodes)  # (N, H, F)
    if concat_heads:
        out = reshape(aggregated, num_nodes, num_heads * out_features)
    else:
        out = aggregated.mean(axis=1)
    out = out + bias
    return relu(out) if activation == "relu" else out


def graph_input_from_adjacency(adjacency) -> GraphInput:
    """An encoder input from a raw (unnormalised) adjacency: the normalised
    propagation matrix and the edge index, both with self loops."""
    coo = sp.coo_matrix(adjacency)
    loops = np.arange(adjacency.shape[0])
    edge_index = np.stack([np.concatenate([coo.col, loops]), np.concatenate([coo.row, loops])])
    return GraphInput(symmetric_normalize(adjacency, self_loops=True), edge_index)


def dense_features(features: SharedRowFeatures) -> np.ndarray:
    """The ``(N, d)`` matrix a factored input stands for."""
    zero_row = np.zeros((1, features.shape[1]))  # what rows == -1 picks
    return np.vstack([densify(features.values, features.fill), zero_row])[features.rows]


def _dense(features):
    if isinstance(features, SharedRowFeatures):
        return Tensor(dense_features(features))
    return features


def gcn_layer_forward(layer: GCNLayer, features, adjacency, activation=None) -> Tensor:
    """``GCNLayer.forward`` as the composite graph, on the dense input."""
    return composite_gcn(_dense(features), adjacency, layer.weight, layer.bias, activation)


def gat_layer_forward(layer: GATLayer, features, edges, activation=None) -> Tensor:
    """``GATLayer.forward`` as the composite graph, on the dense input."""
    return composite_gat(
        _dense(features), edges, layer.weight, layer.attention_src,
        layer.attention_dst, layer.bias, layer.num_heads, layer.out_features,
        layer.concat_heads, layer.negative_slope, activation,
    )


def lumos_vertex_embeddings(model, batch: TreeBatch, features) -> Tensor:
    """``LumosModel.vertex_embeddings`` as encoder, leaf gather and mean pooling."""
    node_embeddings = model.encoder(features, batch)
    leaf_embeddings = F.gather(node_embeddings, batch.leaf_rows)
    return mean_pool(leaf_embeddings, batch.leaf_vertices, batch.num_vertices)


def lumos_logits(model, batch: TreeBatch, features) -> Tensor:
    """``LumosModel.logits`` without the fold: the head on the pooled embeddings."""
    if model.head is None:
        raise RuntimeError("model was built without a classification head")
    return model.head(lumos_vertex_embeddings(model, batch, features))


def cross_entropy(logits: Tensor, targets: np.ndarray, mask) -> Tensor:
    """``cross_entropy`` as log-softmax, gather and masked mean nodes."""
    picked = gather_rows_columns(log_softmax(logits, axis=-1), targets)
    weights = np.asarray(mask, dtype=bool).astype(np.float64)
    return div(-(picked * Tensor(weights)).sum(), max(weights.sum(), 1.0))


def install_composite_forms(monkeypatch) -> None:
    """Run the GCN / GAT layers, the Lumos pooling and head, and the trainer's
    supervised loss as their composite graphs for the rest of the test."""
    monkeypatch.setattr(GCNLayer, "forward", gcn_layer_forward)
    monkeypatch.setattr(GATLayer, "forward", gat_layer_forward)
    monkeypatch.setattr(trainer_module.LumosModel, "vertex_embeddings", lumos_vertex_embeddings)
    monkeypatch.setattr(trainer_module.LumosModel, "logits", lumos_logits)
    monkeypatch.setattr(trainer_module, "cross_entropy", cross_entropy)
