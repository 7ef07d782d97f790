"""Oracles the production paths are compared against.

Every production kernel has exactly one oracle, and it lives here, not in
``src/``: Alg. 1 as the per-edge protocol loop
(:func:`greedy_initialization_reference`), Alg. 3 from scratch
(:func:`find_max_workload_device`) inside Alg. 2 as the from-scratch loop
(:func:`mcmc_run_reference`), the union graph by per-node traversal
(:func:`tree_batch_reference`), the LDP feature exchange one scalar message
at a time (:func:`ldp_exchange_reference`) and the candidate argmax one
scalar comparison at a time (:func:`secure_argmax_reference`).

``TreeConstructor`` threads one ``rng`` and one ``TranscriptAccountant``
through Alg. 1 and Alg. 2; :func:`construct_with_oracles` is the same
threading over the two oracles, for the constructor-level equivalence cases
of ``test_mcmc_incremental``, ``test_greedy_batched`` and
``test_secure_batched``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core import MCMCBalancer, MCMCResult, TreeBatch, TreeConstructorConfig
from repro.core.constructor import TreeConstructionResult
from repro.core.embedding_init import EmbeddingInitializationResult
from repro.core.greedy import comparison_message_bytes
from repro.core.mcmc import _charge_analytic_comparisons
from repro.core.workload import Assignment
from repro.crypto import (
    DegreeComparisonProtocol,
    TranscriptAccountant,
    WorkloadComparisonProtocol,
)
from repro.crypto.ldp import FeatureBinPartitioner, OneBitMechanism
from repro.federation import SERVER_ID, FederatedEnvironment, MessageKind
from repro.graph.sparse import symmetric_normalize


# --------------------------------------------------------------------------- #
# Alg. 1
# --------------------------------------------------------------------------- #
def greedy_initialization_reference(
    environment: FederatedEnvironment,
    accountant: Optional[TranscriptAccountant] = None,
    bit_width: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> Assignment:
    """Alg. 1 as the per-edge protocol loop — the equivalence suites' oracle.

    Every directed neighbour relation runs one scalar
    :meth:`DegreeComparisonProtocol.compare_degrees` and logs its two ledger
    messages individually.
    """
    accountant = accountant if accountant is not None else TranscriptAccountant()
    protocol = DegreeComparisonProtocol(bit_width=bit_width, accountant=accountant, rng=rng)

    selected: Dict[int, Set[int]] = {device_id: set() for device_id in environment.devices}

    for device_id in environment.device_ids():
        device = environment.devices[device_id]
        own_degree = device.degree
        for neighbor in device.ego.neighbors:
            neighbor = int(neighbor)
            neighbor_degree = environment.devices[neighbor].degree
            # Line 4 of Alg. 1: keep v when round(ln deg(v)) >= round(ln deg(u)).
            outcome = protocol.compare_degrees(neighbor_degree, own_degree)
            size_bytes = comparison_message_bytes(outcome.bits_exchanged)
            environment.exchange(
                device_id, neighbor, MessageKind.SECURE_COMPARISON, size_bytes,
                description="greedy-degree-comparison",
            )
            environment.exchange(
                neighbor, device_id, MessageKind.SECURE_COMPARISON, size_bytes,
                description="greedy-degree-comparison",
            )
            if outcome.left_bucket_ge_right:
                selected[device_id].add(neighbor)
    return _install(environment, selected)


def _install(environment: FederatedEnvironment, selected: Dict[int, Set[int]]) -> Assignment:
    """Wrap the selected sets and install them on the environment's devices."""
    assignment = Assignment(selected=selected)
    environment.apply_assignment(assignment.as_lists())
    return assignment


# --------------------------------------------------------------------------- #
# Alg. 3 and Alg. 2
# --------------------------------------------------------------------------- #
def find_max_workload_device(
    environment: FederatedEnvironment,
    assignment: Assignment,
    protocol: Optional[WorkloadComparisonProtocol] = None,
    rng: Optional[np.random.Generator] = None,
    accountant: Optional[TranscriptAccountant] = None,
    per_device_ledger: bool = False,
) -> int:
    """Alg. 3: return the id of the device with the maximum workload.

    When ``protocol`` is provided, all comparisons run through the secure
    comparator; otherwise they run in the clear and their cost is charged
    analytically to ``accountant`` (when given).  ``per_device_ledger``
    records one ledger message per candidate announcement (exact transcript,
    used by small examples/tests); the default aggregates the announcements
    into a single coordination message so thousands of MCMC iterations stay
    cheap to log.
    """
    rng = rng if rng is not None else environment.rng
    workloads = assignment.workloads()

    # Part 1 (device operation 1): each device compares its workload with its
    # ego-network neighbours and announces candidacy to the server.
    candidates: List[int] = []
    total_neighbor_comparisons = 0
    if protocol is None and not per_device_ledger:
        # Vectorised evaluation of exactly the same comparisons, over arrays
        # aligned to the sorted device ids (the ids need not be 0..n-1).
        sorted_ids = environment.device_ids()
        device_ids = np.asarray(sorted_ids, dtype=np.int64)
        workload_array = np.asarray(
            [workloads[device_id] for device_id in sorted_ids], dtype=np.int64
        )
        sources, destinations = environment.directed_edges()
        neighbor_max = np.zeros_like(workload_array)
        if sources.size:
            np.maximum.at(
                neighbor_max,
                np.searchsorted(device_ids, sources),
                workload_array[np.searchsorted(device_ids, destinations)],
            )
        total_neighbor_comparisons = int(sources.size)
        candidates = device_ids[workload_array >= neighbor_max].tolist()
        environment.ledger.send(
            sender=SERVER_ID,
            recipient=SERVER_ID,
            kind=MessageKind.SERVER_COORDINATION,
            size_bytes=environment.num_devices,
            description="alg3-candidate-announcements",
        )
    else:
        for device_id in environment.device_ids():
            device = environment.devices[device_id]
            neighbor_workloads = [workloads[int(v)] for v in device.ego.neighbors]
            total_neighbor_comparisons += len(neighbor_workloads)
            if protocol is not None:
                is_candidate = protocol.is_local_maximum(workloads[device_id], neighbor_workloads)
            else:
                is_candidate = all(workloads[device_id] >= other for other in neighbor_workloads)
            environment.ledger.send(
                sender=device_id,
                recipient=SERVER_ID,
                kind=MessageKind.SERVER_COORDINATION,
                size_bytes=1,
                description="candidate-announcement",
            )
            if is_candidate:
                candidates.append(device_id)

    # Part 2 (device operation 2): candidates compare among themselves; the
    # winners (possibly several on ties) report to the server which picks one.
    if not candidates:
        # Degenerate case (no edges): every device has workload 0.
        candidates = [environment.device_ids()[0]]
    candidate_workloads = [workloads[c] for c in candidates]
    pairwise_comparisons = len(candidates) * max(len(candidates) - 1, 0)
    maximum_value = max(candidate_workloads)
    winners = [c for c, w in zip(candidates, candidate_workloads) if w == maximum_value]
    if protocol is not None:
        # Run the comparisons so the secure transcript is exact.
        winner_index = protocol.argmax(candidate_workloads)
        if candidate_workloads[winner_index] != maximum_value:
            raise RuntimeError("secure argmax disagrees with plaintext maximum")

    if accountant is not None and protocol is None:
        _charge_analytic_comparisons(
            accountant, total_neighbor_comparisons + pairwise_comparisons
        )
    _charge_comparison_traffic(environment, total_neighbor_comparisons + pairwise_comparisons)

    if protocol is None and not per_device_ledger:
        # Aggregated path: the winner announcements collapse into a single
        # coordination message (same bytes, one ledger entry) so thousands of
        # MCMC iterations stay cheap to log — mirroring the candidate
        # announcements above.
        environment.ledger.send(
            sender=SERVER_ID,
            recipient=SERVER_ID,
            kind=MessageKind.SERVER_COORDINATION,
            size_bytes=len(winners),
            description="alg3-maximum-announcements",
        )
    else:
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
    """Charge aggregated secure-comparison traffic to the environment ledger.

    Alg. 3 traffic belongs to the (one-off) tree-construction phase; we log a
    single aggregated message so the ledger stays small even for thousands of
    iterations.
    """
    environment.ledger.send(
        sender=SERVER_ID,
        recipient=SERVER_ID,
        kind=MessageKind.SECURE_COMPARISON,
        size_bytes=count * 8,
        description="alg3-comparisons",
    )


def mcmc_run_reference(self: MCMCBalancer, initial: Assignment) -> MCMCResult:
    """Alg. 2 as the from-scratch loop — the oracle of ``MCMCBalancer.run``.

    Takes the balancer as ``self``: it reads the balancer's environment, rng,
    accountant and (in secure mode) protocol.
    """
    current = initial.copy()
    history = [current.objective()]
    accepted = 0

    for iteration in range(self.iterations):
        # Line 2: device with the largest workload under X_t.
        heaviest = find_max_workload_device(
            self.environment,
            current,
            protocol=self._protocol,
            rng=self.rng,
            accountant=self.accountant,
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
        for target in targets:
            self.environment.exchange(
                heaviest, target, MessageKind.SERVER_COORDINATION, 8,
                description="mcmc-transition-proposal",
            )

        # Line 6: device with the largest workload under X'_t.
        heaviest_after = find_max_workload_device(
            self.environment,
            proposal,
            protocol=self._protocol,
            rng=self.rng,
            accountant=self.accountant,
        )

        # Line 7: f(X_t) - f(X'_t), computed between the two maximal devices.
        objective_before = current.objective()
        objective_after = proposal.objective()
        if self._protocol is not None:
            difference = self._protocol.objective_difference(objective_before, objective_after)
        else:
            difference = objective_before - objective_after
            _charge_analytic_comparisons(self.accountant, 1, bit_width=self.bit_width)
        self.environment.exchange(
            heaviest, heaviest_after, MessageKind.SECURE_COMPARISON, self.bit_width // 8 or 1,
            description="mcmc-objective-difference",
        )

        # Line 8: Metropolis-Hastings acceptance (Eq. 18).
        acceptance_probability = min(1.0, math.exp(min(difference, 50)))
        if self.rng.random() < acceptance_probability:
            current = proposal
            accepted += 1
            # Line 9: the source device informs the moved neighbours.
            for target in targets:
                self.environment.exchange(
                    heaviest, target, MessageKind.SERVER_COORDINATION, 8,
                    description="mcmc-accept-notification",
                )
        history.append(current.objective())
        self.environment.next_round()

    self.environment.apply_assignment(current.as_lists())
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
) -> Tuple[Assignment, MCMCResult, TranscriptAccountant]:
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
# Union graph
# --------------------------------------------------------------------------- #
def tree_batch_reference(
    environment: FederatedEnvironment,
    construction: TreeConstructionResult,
    initialization: EmbeddingInitializationResult,
    feature_dim: int,
) -> TreeBatch:
    """``TreeBatch.build`` by per-node traversal of the local graphs.

    Reads ``construction.local_graphs`` node by node, where the production
    path derives the same layout from the workloads.
    """
    cls = TreeBatch
    device_slices: Dict[int, Tuple[int, int]] = {}
    rows: List[int] = []
    cols: List[int] = []
    leaf_rows: List[int] = []
    leaf_vertices: List[int] = []
    neighbor_rows: List[int] = []
    neighbor_receivers: List[int] = []
    neighbor_senders: List[int] = []
    feature_rows: List[int] = []
    offset = 0
    ids_list = environment.device_ids()

    for position, device_id in enumerate(ids_list):
        local_graph = construction.local_graphs[device_id]
        size = local_graph.num_nodes
        device_slices[device_id] = (offset, size)

        feature_rows.extend([-1] * size)
        for node in local_graph.nodes:
            global_row = offset + node.local_id
            if node.vertex is None:
                continue
            leaf_rows.append(global_row)
            leaf_vertices.append(int(node.vertex))
            if node.vertex == device_id:
                feature_rows[global_row] = position
            else:
                feature_rows[global_row] = len(ids_list) + len(neighbor_rows)
                neighbor_rows.append(global_row)
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

    ids = np.asarray(ids_list, dtype=np.int64)
    receivers = np.asarray(neighbor_receivers, dtype=np.int64)
    senders = np.asarray(neighbor_senders, dtype=np.int64)
    return cls(
        num_nodes=num_nodes,
        num_vertices=environment.num_devices,
        adjacency=adjacency,
        edge_index=edge_index,
        layer_input=cls._factored(
            np.asarray(feature_rows, dtype=np.int64),
            cls._own_features(environment, ids_list, feature_dim),
            initialization,
            receivers,
            senders,
        ),
        leaf_rows=np.asarray(leaf_rows, dtype=np.int64),
        leaf_vertices=np.searchsorted(ids, np.asarray(leaf_vertices, dtype=np.int64)),
        device_slices=device_slices,
        neighbor_rows=np.asarray(neighbor_rows, dtype=np.int64),
        neighbor_receivers=receivers,
        neighbor_senders=senders,
    )


def ldp_exchange_reference(
    environment: FederatedEnvironment,
    assignment: Assignment,
    epsilon: float,
    bounds,
    rng: np.random.Generator,
) -> Dict[Tuple[int, int], np.ndarray]:
    """The feature exchange one message at a time: ``(receiver, sender) -> row``.

    One scalar ``OneBitMechanism.encode`` + ``recover`` per message, one
    ``exchange`` per message and one ``charge_compute`` per sender — the
    oracle of the columnar ``LDPEmbeddingInitializer.draw`` / ``threshold``.
    """
    mechanism = OneBitMechanism(epsilon=epsilon, bounds=bounds)
    requesters: Dict[int, list] = {device_id: [] for device_id in environment.devices}
    for receiver, chosen in assignment.selected.items():
        for sender in chosen:
            requesters[int(sender)].append(int(receiver))
    rows: Dict[Tuple[int, int], np.ndarray] = {}
    for sender, receivers in requesters.items():
        feature = environment.devices[sender].ego.feature
        dimension = feature.shape[0]
        workload = max(assignment.workload(sender), 1)
        partitioner = FeatureBinPartitioner(dimension, workload, rng=rng)
        for rank, receiver in enumerate(sorted(receivers)):
            encoded = mechanism.encode(
                feature, workload, dimension=dimension,
                selected=partitioner.mask_for_bin(rank % workload), rng=rng,
            )
            rows[(receiver, sender)] = mechanism.recover(encoded, workload, dimension=dimension)
            environment.exchange(
                sender, receiver, MessageKind.FEATURE_EXCHANGE,
                max(1, (2 * dimension) // 8), description="ldp-feature",
            )
        environment.charge_compute(sender, 0.1 * len(receivers), description="ldp-encoding")
    return rows


def secure_argmax_reference(comparator, values) -> int:
    """The scalar scan ``SecureComparator.argmax`` runs as one verified batch.

    One ``compare`` per position against the best so far; ties resolve to the
    earliest index.
    """
    if not values:
        raise ValueError("argmax of an empty list")
    best_index = 0
    for index in range(1, len(values)):
        outcome = comparator.compare(values[index], values[best_index])
        if outcome.left_ge_right and values[index] != values[best_index]:
            best_index = index
        elif outcome.left_ge_right and values[index] == values[best_index]:
            # Equal values: keep the earlier index (deterministic tie-break).
            continue
    return best_index
