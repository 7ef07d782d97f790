"""Tree-based GNN trainer (paper Section VI).

Every device performs message passing over its own local tree; afterwards the
leaf embeddings that refer to the same global vertex are pooled across
devices (Eq. 31) to obtain the vertex embeddings used for the supervised
(cross-entropy, Eq. 32) or unsupervised (link prediction, Eq. 33) loss.

Simulation strategy
-------------------
The per-device trees share the same GNN weights (the federated model), and no
edges connect different trees.  Message passing over the *union* of all trees
— a block-diagonal graph — is therefore mathematically identical to running
the GNN on every tree separately, so the trainer builds that union graph once
(:class:`TreeBatch`) and trains on it with ordinary batched linear algebra.
The federated character of the computation is preserved by the communication
accounting (:meth:`TreeBasedGNNTrainer.communication_profile` and the epoch
cost model), which reflects what each *device* would have computed and sent:
its own tree, its own leaf-embedding exchanges, its own loss share.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..crypto.ldp import FeatureBounds
from ..faults.config import FaultScenarioConfig
from ..faults.plan import FaultPlan
from ..federation.events import MessageKind
from ..federation.simulator import FederatedEnvironment
from ..gnn.gcn import GCNLayer
from ..gnn.models import EncoderConfig, GNNEncoder
from ..gnn.pooling import get_pooling
from ..nn.backend import get_backend
from ..graph.sparse import symmetric_normalize
from ..graph.splits import EdgeSplit, NodeSplit
from ..nn import functional as F
from ..nn.layers import Linear
from ..nn.loss import cross_entropy, link_prediction_loss
from ..nn.module import Module
from ..nn.optim import Adam
from ..nn.shared_rows import SharedRowFeatures
from ..nn.tensor import Tensor, no_grad
from .config import TrainerConfig
from .constructor import TreeConstructionResult
from .embedding_init import EmbeddingInitializationResult
from .tree import local_graph_sizes


# --------------------------------------------------------------------------- #
# Union graph of all per-device trees
# --------------------------------------------------------------------------- #
@dataclass
class TreeBatch:
    """Block-diagonal union of all per-device local graphs.

    ``leaf_vertices`` holds, per leaf row, the id of the referenced vertex
    (device ids are ``0..n-1``, so pooling scatters into ``num_vertices``
    rows by id).

    The initial embeddings (Eq. 25) are ``layer_input``, held as their
    *distinct* rows and never as a ``(num_nodes, d)`` matrix: one raw feature
    per device (id order; every centre-leaf replica shares it), then
    one LDP message per neighbour leaf (the recovered values at its released
    positions, the bounds' midpoint elsewhere); virtual nodes are zero.
    :attr:`features` is the derived dense view.
    """

    num_nodes: int
    num_vertices: int
    adjacency: sp.csr_matrix
    edge_index: np.ndarray
    layer_input: SharedRowFeatures
    leaf_rows: np.ndarray
    leaf_vertices: np.ndarray
    device_slices: Dict[int, Tuple[int, int]]
    # Refill recipe for the epsilon-dependent rows: the ``k``-th LDP message
    # sits at node ``neighbor_rows[k]`` and was received by
    # ``neighbor_receivers[k]`` from ``neighbor_senders[k]``.  Everything else
    # in the batch (structure, centre features) is epsilon-independent, so a
    # cached batch can be re-bound to another sweep point's LDP exchange via
    # :meth:`with_initialization` instead of being rebuilt.
    neighbor_rows: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    neighbor_receivers: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    neighbor_senders: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _pool_matrix: Optional[sp.csr_matrix] = field(default=None, repr=False, compare=False)
    _folded_pool_adjacency: Any = field(default=None, repr=False, compare=False)
    _pool_row_sums: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _features: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def features(self) -> np.ndarray:
        """Dense ``(num_nodes, d)`` initial embeddings: for tests and the
        ``reference`` backend's op-for-op oracle, never the production path."""
        if self._features is None:
            self._features = self.layer_input.dense()
        return self._features

    @staticmethod
    def _factored(
        feature_rows: np.ndarray,
        own: sp.csr_matrix,
        initialization: EmbeddingInitializationResult,
        receivers: np.ndarray,
        senders: np.ndarray,
    ) -> SharedRowFeatures:
        """Own features stacked on the messages ``receivers`` got from ``senders``."""
        exchanged = initialization.rows_for(receivers, senders)
        return SharedRowFeatures(
            feature_rows,
            sp.vstack([own, exchanged], format="csr"),
            np.repeat([0.0, initialization.midpoint], [own.shape[0], exchanged.shape[0]]),
        )

    def mean_pool_matrix(self) -> sp.csr_matrix:
        """Sparse ``(num_vertices, num_nodes)`` operator computing Eq. 31.

        Row ``v`` holds ``1 / count(v)`` at every leaf row referring to vertex
        ``v``; multiplying node embeddings by it performs gather + mean-pool
        in one sparse product (vertices without leaves yield zeros, matching
        the scatter-based pooling).  Built lazily and cached on the batch.
        """
        if self._pool_matrix is None:
            counts = np.bincount(self.leaf_vertices, minlength=self.num_vertices)
            weights = 1.0 / np.maximum(counts[self.leaf_vertices], 1).astype(np.float64)
            self._pool_matrix = sp.csr_matrix(
                (weights, (self.leaf_vertices, self.leaf_rows)),
                shape=(self.num_vertices, self.num_nodes),
            )
        return self._pool_matrix

    def folded_pool_adjacency(self):
        """Mean-pool and propagation folded into one prepared operator.

        ``P (Â H W + 1 bᵀ) = (P Â) (H W) + (P 1) ⊗ b`` — the constant chain
        ``P Â`` is collapsed once per batch (``OpsBackend.fold_chain``) so the
        final GCN layer plus pooling costs a single sparse product per epoch
        instead of two.  The result is a backend-agnostic
        :class:`~repro.nn.backend.PreparedMatrix`, cached on the batch; the
        engine prewarms it on the cached ``tree_batch`` artifact so every
        sweep point re-bound via :meth:`with_initialization` shares it.
        """
        if self._folded_pool_adjacency is None:
            self._folded_pool_adjacency = get_backend().fold_chain(
                [self.mean_pool_matrix(), self.adjacency]
            )
        return self._folded_pool_adjacency

    def pool_row_sums(self) -> np.ndarray:
        """Row sums ``P 1`` of the mean-pool operator (bias term of the fold)."""
        if self._pool_row_sums is None:
            self._pool_row_sums = np.asarray(
                self.mean_pool_matrix().sum(axis=1)
            ).ravel()
        return self._pool_row_sums

    def with_initialization(
        self, initialization: EmbeddingInitializationResult
    ) -> "TreeBatch":
        """Re-bind the batch to another LDP exchange of the same construction.

        Returns a batch sharing every epsilon-independent array (adjacency,
        edge index, leaf maps, pool matrix) with ``self``; only the LDP
        messages of ``layer_input`` are swapped — for exactly the rows a
        from-scratch build would hold for ``initialization``.
        """
        if self.neighbor_rows is None:
            raise ValueError("batch was built without a neighbour-refill recipe")
        rows, own = self.layer_input.rows, self.layer_input.values[: self.num_vertices]
        factored = self._factored(
            rows, own, initialization, self.neighbor_receivers, self.neighbor_senders
        )
        return dataclasses.replace(self, layer_input=factored, _features=None)

    @classmethod
    def build(
        cls,
        environment: FederatedEnvironment,
        construction: TreeConstructionResult,
        initialization: EmbeddingInitializationResult,
        feature_dim: int,
    ) -> "TreeBatch":
        """Assemble the union graph, its initial embeddings and leaf mapping.

        Initial embeddings follow Eq. 25: centre leaves carry the device's own
        raw feature, neighbour leaves carry the LDP-recovered feature received
        from that neighbour, virtual nodes carry zeros.

        Assembly is pure numpy block arithmetic over the layouts
        ``build_tree`` / ``build_star`` emit for the sorted selected-neighbour
        lists (no per-node python loops), so the construction's lazy
        ``local_graphs`` are never read here.
        """
        n = environment.num_devices
        if not n:
            raise ValueError("environment has no devices")
        use_vn = construction.used_virtual_nodes

        # One entry per (device, selected-neighbour) pair, devices in id order.
        pair_owners, flat_neighbors = construction.assignment.pairs()
        w = np.bincount(pair_owners, minlength=n)
        sizes = local_graph_sizes(w, use_vn)

        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        num_nodes = int(sizes.sum())
        total = pair_owners.shape[0]
        pair_rank = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(w) - w, w)

        if use_vn:
            base = offsets[pair_owners] + 3 * pair_rank
            triplets = np.empty((total, 3, 2), dtype=np.int64)
            triplets[:, 0, 0] = offsets[pair_owners]  # root -> parent
            triplets[:, 0, 1] = base + 1
            triplets[:, 1, 0] = base + 1  # parent -> centre leaf
            triplets[:, 1, 1] = base + 2
            triplets[:, 2, 0] = base + 1  # parent -> neighbour leaf
            triplets[:, 2, 1] = base + 3
            undirected = triplets.reshape(-1, 2)
            center_rows = base + 2
            neighbor_rows = base + 3
            leaf_counts = np.where(w == 0, 1, 2 * w)
        else:
            neighbor_rows = offsets[pair_owners] + 1 + pair_rank
            undirected = np.stack([offsets[pair_owners], neighbor_rows], axis=1)
            center_rows = None
            leaf_counts = w + 1

        leaf_offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(leaf_counts[:-1], out=leaf_offsets[1:])
        num_leaves = int(leaf_counts.sum())
        leaf_rows = np.empty(num_leaves, dtype=np.int64)
        leaf_vertices = np.empty(num_leaves, dtype=np.int64)
        if use_vn:
            pair_leaves = leaf_offsets[pair_owners] + 2 * pair_rank
            leaf_rows[pair_leaves] = center_rows
            leaf_vertices[pair_leaves] = pair_owners
            leaf_rows[pair_leaves + 1] = neighbor_rows
            leaf_vertices[pair_leaves + 1] = flat_neighbors
            isolated = w == 0
            leaf_rows[leaf_offsets[isolated]] = offsets[isolated]
            leaf_vertices[leaf_offsets[isolated]] = np.flatnonzero(isolated)
        else:
            leaf_rows[leaf_offsets] = offsets
            leaf_vertices[leaf_offsets] = np.arange(n)
            pair_leaves = leaf_offsets[pair_owners] + 1 + pair_rank
            leaf_rows[pair_leaves] = neighbor_rows
            leaf_vertices[pair_leaves] = flat_neighbors

        # --- features: centre rows share the device's raw feature, neighbour
        # rows carry one LDP message each, virtual rows stay zero (Eq. 25) ----
        feature_rows = np.full(num_nodes, -1, dtype=np.int64)
        if use_vn:
            feature_rows[center_rows] = pair_owners
            feature_rows[offsets[w == 0]] = np.flatnonzero(w == 0)
        else:
            feature_rows[offsets] = np.arange(n)
        feature_rows[neighbor_rows] = n + np.arange(total)

        # --- adjacency and edge index, in the edge order of a per-node traversal ----
        rows = undirected.ravel()
        cols = undirected[:, ::-1].ravel()
        data = np.ones(rows.shape[0], dtype=np.float64)
        adjacency_raw = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
        adjacency = symmetric_normalize(adjacency_raw, self_loops=True)
        src = np.concatenate([cols, np.arange(num_nodes)])
        dst = np.concatenate([rows, np.arange(num_nodes)])
        edge_index = np.stack([src, dst])

        device_slices = dict(enumerate(zip(offsets.tolist(), sizes.tolist())))
        return cls(
            num_nodes=num_nodes,
            num_vertices=n,
            adjacency=adjacency,
            edge_index=edge_index,
            layer_input=cls._factored(
                feature_rows,
                cls._own_features(environment, environment.device_ids(), feature_dim),
                initialization,
                pair_owners,
                flat_neighbors,
            ),
            leaf_rows=leaf_rows,
            leaf_vertices=leaf_vertices,
            device_slices=device_slices,
            neighbor_rows=neighbor_rows,
            neighbor_receivers=pair_owners,
            neighbor_senders=flat_neighbors,
        )

    @staticmethod
    def _own_features(
        environment: FederatedEnvironment, ids: List[int], feature_dim: int
    ) -> sp.csr_matrix:
        """The devices' raw features, one sparse row per device in ``ids`` order."""
        features = [environment.devices[device_id].ego.feature for device_id in ids]
        return sp.csr_matrix(np.asarray(features, dtype=np.float64).reshape(-1, feature_dim))


class _BatchGraphInput:
    """Adapter exposing the union graph in the format GNNEncoder expects."""

    def __init__(self, batch: TreeBatch) -> None:
        self.adjacency = batch.adjacency
        self.edge_index = batch.edge_index

    @property
    def num_nodes(self) -> int:
        return int(self.adjacency.shape[0])


# --------------------------------------------------------------------------- #
# The Lumos model: encoder over trees + cross-device POOL + task heads
# --------------------------------------------------------------------------- #
class LumosModel(Module):
    """Shared federated model: tree GNN encoder, POOL layer and classifier head."""

    def __init__(
        self,
        feature_dim: int,
        num_classes: Optional[int],
        config: TrainerConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        encoder_config = EncoderConfig(
            backbone=config.backbone,
            num_layers=config.num_layers,
            hidden_dim=config.hidden_dim,
            output_dim=config.output_dim,
            dropout=config.dropout,
            num_heads=config.num_heads,
        )
        self.encoder = GNNEncoder(feature_dim, encoder_config, rng=rng)
        self.pooling = get_pooling(config.pooling)
        self.head = (
            Linear(self.encoder.output_dim, num_classes, rng=rng)
            if num_classes is not None
            else None
        )

    def _uses_mean_pool(self) -> bool:
        return self.pooling is get_pooling("mean")

    def vertex_embeddings(self, batch: TreeBatch, features: Tensor) -> Tensor:
        """Run message passing on every tree and pool leaves per vertex (Eq. 31)."""
        node_embeddings = self.encoder(features, _BatchGraphInput(batch))
        if self._uses_mean_pool() and get_backend().allow_fused:
            # Gather + mean-pool fused into one sparse product (same maths,
            # one kernel instead of three).
            return F.sparse_matmul(batch.mean_pool_matrix(), node_embeddings)
        leaf_embeddings = F.gather(node_embeddings, batch.leaf_rows)
        return self.pooling(leaf_embeddings, batch.leaf_vertices, batch.num_vertices)

    def logits(self, batch: TreeBatch, features: Tensor) -> Tensor:
        """Class logits per vertex (supervised task, Eq. 32)."""
        if self.head is None:
            raise RuntimeError("model was built without a classification head")
        backend = get_backend()
        if backend.allow_fused and self._uses_mean_pool():
            final = self.encoder.final_layer
            if (
                isinstance(final, GCNLayer)
                and final.bias is not None
                and self.head.bias is not None
                # A one-layer encoder has no hidden tensor to hand the fold:
                # its input is the factored layer input, which only a
                # message-passing layer consumes.
                and self.encoder.config.num_layers > 1
            ):
                # Fold the final layer's propagation with the pooling
                # operator (one precomputed ``P Â`` product replaces the
                # propagate-then-pool pair, see folded_pool_adjacency) and
                # absorb the classifier head into the same node: the two
                # weight matrices collapse to one ``(hidden, classes)``
                # product so every kernel runs at ``num_classes`` width.
                hidden = self.encoder.forward_hidden(features, _BatchGraphInput(batch))
                return F.fused_folded_head(
                    hidden,
                    batch.folded_pool_adjacency(),
                    final.weight,
                    final.bias,
                    self.head.weight,
                    self.head.bias,
                    batch.pool_row_sums(),
                )
            # No fold (GAT backbone): mean-pool and the classifier head still
            # collapse into one autograd node.
            node_embeddings = self.encoder(features, _BatchGraphInput(batch))
            return F.fused_pool_head(
                node_embeddings,
                batch.mean_pool_matrix(),
                self.head.weight,
                self.head.bias,
            )
        return self.head(self.vertex_embeddings(batch, features))


# --------------------------------------------------------------------------- #
# Cost model for the simulated system metrics (Fig. 8)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EpochCostModel:
    """Translates per-device work into simulated per-epoch wall-clock time.

    ``compute_per_node`` is the cost of one tree node in one epoch (forward +
    backward), ``time_per_round`` is the latency of one inter-device
    communication round, and ``fixed_overhead`` covers the per-epoch work that
    trimming cannot remove (optimizer step, loss aggregation barrier).  The
    epoch ends when the slowest device finishes (synchronous protocol).
    """

    compute_per_node: float = 0.03
    time_per_round: float = 0.25
    fixed_overhead: float = 20.0

    def epoch_time(self, tree_sizes: np.ndarray, rounds_per_device: np.ndarray) -> float:
        """Simulated duration of one epoch (seconds)."""
        per_device = (
            tree_sizes.astype(np.float64) * self.compute_per_node
            + rounds_per_device.astype(np.float64) * self.time_per_round
        )
        return float(self.fixed_overhead + per_device.max()) if per_device.size else 0.0

    def steady_state_epoch_time(self, workloads: np.ndarray) -> float:
        """Epoch time implied by a workload distribution alone.

        Derives the structural quantities from the workloads — ``3*wl + 1``
        tree nodes (:func:`repro.core.tree.expected_tree_size`) and ``2*wl``
        communication rounds (one upload + one download per kept neighbour)
        — so the maintenance layer's :class:`StalenessMonitor` can price a
        maintained tree against a from-scratch reconstruction without
        materialising either's local graphs.
        """
        workloads = np.asarray(workloads, dtype=np.float64)
        return self.epoch_time(local_graph_sizes(workloads), 2.0 * workloads)


# --------------------------------------------------------------------------- #
# Training histories
# --------------------------------------------------------------------------- #
@dataclass
class SupervisedHistory:
    """Per-epoch record of a supervised training run."""

    losses: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    test_accuracy: float = 0.0
    best_val_accuracy: float = 0.0
    wall_clock_seconds: float = 0.0


@dataclass
class UnsupervisedHistory:
    """Per-epoch record of an unsupervised training run."""

    losses: List[float] = field(default_factory=list)
    val_auc: List[float] = field(default_factory=list)
    test_auc: float = 0.0
    best_val_auc: float = 0.0
    wall_clock_seconds: float = 0.0


# --------------------------------------------------------------------------- #
# Trainer
# --------------------------------------------------------------------------- #
class TreeBasedGNNTrainer:
    """Trains the Lumos model over a federated environment."""

    def __init__(
        self,
        environment: FederatedEnvironment,
        construction: TreeConstructionResult,
        initialization: EmbeddingInitializationResult,
        config: TrainerConfig,
        rng: Optional[np.random.Generator] = None,
        cost_model: Optional[EpochCostModel] = None,
        batch: Optional[TreeBatch] = None,
        faults: Optional[FaultScenarioConfig] = None,
    ) -> None:
        self.environment = environment
        self.construction = construction
        self.initialization = initialization
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng()
        self.cost_model = cost_model if cost_model is not None else EpochCostModel()
        # An empty scenario is normalised to None so the fault-free training
        # path is selected by a single ``is None`` check and stays
        # bit-identical to the pre-fault implementation.
        self.faults = faults if faults is not None and not faults.is_empty() else None
        #: Populated by :meth:`train_supervised`; under an empty plan it
        #: reports full participation.
        self.fault_stats: Optional[Dict[str, float]] = None
        self._fault_plans: Dict[int, FaultPlan] = {}
        self._fault_charge_cache: Dict[str, tuple] = {}

        sample_feature = next(iter(environment.devices.values())).ego.feature
        self.feature_dim = int(sample_feature.shape[0])
        # A pre-assembled union graph (e.g. the pipeline's cached tree_batch
        # artifact) can be injected; otherwise it is built here.
        self.batch = (
            batch
            if batch is not None
            else TreeBatch.build(environment, construction, initialization, self.feature_dim)
        )
        # The communication profile, tree sizes and per-epoch ledger charges
        # are static once the assignment is installed — computed once, reused
        # every epoch.
        self._tree_sizes: Optional[np.ndarray] = None
        self._profile_cache: Dict[str, Dict[str, np.ndarray]] = {}
        self._epoch_charge_cache: Dict[str, tuple] = {}

    @property
    def _features(self):
        """The batch's layer-0 input: factored, or — for a backend that runs
        the un-fused graph op for op (``reference``) — the dense tensor."""
        if get_backend().allow_fused:
            return self.batch.layer_input
        return Tensor(self.batch.features)

    # ------------------------------------------------------------------ #
    # System metrics
    # ------------------------------------------------------------------ #
    def tree_sizes(self) -> np.ndarray:
        """Number of local-graph nodes per device, indexed by device id (as
        every per-device array of the trainer is)."""
        if self._tree_sizes is None:
            workloads = np.bincount(
                self.batch.neighbor_receivers, minlength=self.batch.num_vertices
            )
            self._tree_sizes = local_graph_sizes(
                workloads, self.construction.used_virtual_nodes
            )
        return self._tree_sizes.copy()

    def communication_profile(self, task: str = "supervised") -> Dict[str, np.ndarray]:
        """Per-device inter-device communication rounds in one training epoch.

        A device ``u`` participates in one round per leaf-embedding it sends
        (``wl(u)``, one per selected neighbour), one per embedding it receives
        back (one for every device that kept ``u``), and one round of loss
        aggregation.  The unsupervised task additionally requests and receives
        negative-sample embeddings — as many as the device's original degree,
        independent of trimming (negatives are non-neighbours).
        """
        if task not in ("supervised", "unsupervised"):
            raise ValueError("task must be 'supervised' or 'unsupervised'")
        cached = self._profile_cache.get(task)
        if cached is not None:
            return {key: value.copy() for key, value in cached.items()}

        # One batch entry per (device, selected neighbour) pair.
        num_devices = self.environment.num_devices
        workloads = np.bincount(self.batch.neighbor_receivers, minlength=num_devices)
        incoming = np.bincount(self.batch.neighbor_senders, minlength=num_devices)

        rounds = workloads + incoming + 1
        if task == "unsupervised":
            degrees = np.asarray(
                [device.degree for device in self.environment.devices.values()], dtype=np.int64
            )
            rounds = rounds + 2 * degrees
        profile = {
            "per_device_rounds": rounds,
            "workloads": workloads,
            "incoming": incoming,
        }
        self._profile_cache[task] = profile
        # Hand out copies: the cached arrays feed later accounting and must
        # not be mutable through the returned dictionary.
        return {key: value.copy() for key, value in profile.items()}

    def simulated_epoch_time(self, task: str = "supervised") -> float:
        """Simulated wall-clock duration of one synchronous epoch (Fig. 8b)."""
        profile = self.communication_profile(task)
        return self.cost_model.epoch_time(self.tree_sizes(), profile["per_device_rounds"])

    def _charge_epoch(self, task: str) -> None:
        """Charge one epoch's communication and compute to the ledger (aggregated)."""
        cached = self._epoch_charge_cache.get(task)
        if cached is None:
            profile = self.communication_profile(task)
            total_rounds = int(profile["per_device_rounds"].sum())
            cached = (
                total_rounds * self.config.output_dim * 8,
                f"epoch-{task}-rounds:{total_rounds}",
                np.arange(self.environment.num_devices),
                self.tree_sizes().astype(np.float64),
            )
            self._epoch_charge_cache[task] = cached
        size_bytes, description, device_ids, costs = cached
        self.environment.ledger.send(
            sender=0,
            recipient=0,
            kind=MessageKind.EMBEDDING_EXCHANGE,
            size_bytes=size_bytes,
            description=description,
        )
        self.environment.ledger.compute_many(device_ids, costs, description="tree-gnn-epoch")
        self.environment.next_round()

    # ------------------------------------------------------------------ #
    # Fault injection (graceful degradation)
    # ------------------------------------------------------------------ #
    def _fault_plan(self, epochs: int) -> Optional[FaultPlan]:
        """Compile (and cache) the fault schedule for an ``epochs``-round run."""
        if self.faults is None:
            return None
        plan = self._fault_plans.get(epochs)
        if plan is None:
            plan = FaultPlan.compile(self.faults, self.environment.num_devices, epochs)
            self._fault_plans[epochs] = plan
        return plan

    def _charge_epoch_faulted(self, task: str, plan: FaultPlan, epoch: int) -> None:
        """Charge one degraded epoch: only online devices work and send.

        Dropped-out devices are charged nothing.  Evicted stragglers and
        lost updates *did* transmit, so their rounds stay in the charged
        total; the undelivered payload is additionally logged on the
        ledger's drop channel.
        """
        cached = self._fault_charge_cache.get(task)
        if cached is None:
            profile = self.communication_profile(task)
            cached = (profile["per_device_rounds"], self.tree_sizes().astype(np.float64))
            self._fault_charge_cache[task] = cached
        per_device_rounds, costs = cached
        online = plan.online_mask(epoch)
        self.environment.set_availability(online)
        masked_rounds = per_device_rounds * online
        total_rounds = int(masked_rounds.sum())
        self.environment.ledger.send(
            sender=0,
            recipient=0,
            kind=MessageKind.EMBEDDING_EXCHANGE,
            size_bytes=total_rounds * self.config.output_dim * 8,
            description=f"epoch-{task}-rounds:{total_rounds}",
        )
        if online.any():
            self.environment.ledger.compute_many(
                np.flatnonzero(online), costs[online], description="tree-gnn-epoch"
            )
        undelivered = online & (plan.evicted_mask(epoch) | plan.lost_mask(epoch))
        undelivered_count = int(undelivered.sum())
        if undelivered_count:
            self.environment.ledger.drop(
                sender=0,
                recipient=0,
                kind=MessageKind.EMBEDDING_EXCHANGE,
                size_bytes=int(masked_rounds[undelivered].sum())
                * self.config.output_dim
                * 8,
                description=f"epoch-{task}-undelivered:{undelivered_count}",
            )
        self.environment.next_round()

    def _fault_epoch_times(self, plan: FaultPlan, task: str) -> np.ndarray:
        """Per-round simulated epoch durations under the fault schedule.

        Each round ends when the slowest *counted* device finishes: offline
        devices do not run, and evicted stragglers are past the deadline so
        the server stops waiting for them — which is exactly how a round
        deadline caps straggler damage.
        """
        profile = self.communication_profile(task)
        per_device = (
            self.tree_sizes().astype(np.float64) * self.cost_model.compute_per_node
            + profile["per_device_rounds"].astype(np.float64)
            * self.cost_model.time_per_round
        )
        counted = plan.online & ~plan.evicted
        effective = per_device[None, :] * plan.latency * counted
        if effective.size:
            round_max = effective.max(axis=1)
        else:
            round_max = np.zeros(plan.num_rounds, dtype=np.float64)
        return self.cost_model.fixed_overhead + round_max

    def _finalize_fault_stats(self, plan: Optional[FaultPlan], task: str, skipped_updates: int) -> None:
        if plan is None:
            self.fault_stats = {
                "mean_participation": 1.0,
                "offline_device_rounds": 0.0,
                "evicted_device_rounds": 0.0,
                "lost_update_rounds": 0.0,
                "mean_latency_multiplier": 1.0,
                "skipped_updates": 0.0,
                "mean_epoch_time": self.simulated_epoch_time(task),
            }
        else:
            times = self._fault_epoch_times(plan, task)
            stats = plan.summary()
            stats["skipped_updates"] = float(skipped_updates)
            stats["mean_epoch_time"] = (
                float(times.mean()) if times.size else self.cost_model.fixed_overhead
            )
            self.fault_stats = stats
            self.environment.set_availability(None)
        obs.set_gauge("trainer.mean_participation", self.fault_stats["mean_participation"])
        obs.add_counter("trainer.skipped_updates", self.fault_stats["skipped_updates"])
        obs.add_counter(
            "trainer.offline_device_rounds", self.fault_stats["offline_device_rounds"]
        )
        obs.add_counter(
            "trainer.evicted_device_rounds", self.fault_stats["evicted_device_rounds"]
        )
        obs.add_counter(
            "trainer.lost_update_rounds", self.fault_stats["lost_update_rounds"]
        )

    def _resolve_epochs(self, epochs: Optional[int]) -> int:
        """The explicit ``epochs`` argument, else the configured default."""
        epochs = self.config.epochs if epochs is None else int(epochs)
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        return epochs

    # ------------------------------------------------------------------ #
    # Supervised training (node classification)
    # ------------------------------------------------------------------ #
    def train_supervised(
        self,
        labels: np.ndarray,
        split: NodeSplit,
        epochs: Optional[int] = None,
        log_every: int = 0,
    ) -> Tuple[LumosModel, SupervisedHistory]:
        """Train for node classification and return the model and its history."""
        epochs = self._resolve_epochs(epochs)
        with obs.span("trainer.train_supervised", epochs=epochs):
            return self._train_supervised_impl(labels, split, epochs, log_every)

    def _train_supervised_impl(
        self,
        labels: np.ndarray,
        split: NodeSplit,
        epochs: int,
        log_every: int,
    ) -> Tuple[LumosModel, SupervisedHistory]:
        labels = np.asarray(labels, dtype=np.int64)
        num_classes = int(labels.max()) + 1
        model = LumosModel(self.feature_dim, num_classes, self.config, rng=self.rng)
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        history = SupervisedHistory()
        best_state = None
        best_predictions: Optional[np.ndarray] = None
        start = time.perf_counter()

        plan = self._fault_plan(epochs)
        skipped_updates = 0

        for epoch in range(epochs):
            model.train()
            logits = model.logits(self.batch, self._features)
            if plan is None:
                loss = cross_entropy(logits, labels, mask=split.train_mask)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                loss_value = loss.item()
            else:
                # Graceful degradation: only this round's participants
                # contribute training vertices.  ``cross_entropy`` divides
                # by the mask sum, so survivors are upweighted to keep the
                # gradient an unbiased average over present devices
                # (FedDropoutAvg-style participation reweighting).
                round_mask = np.logical_and(split.train_mask, plan.participants(epoch))
                if round_mask.any():
                    loss = cross_entropy(logits, labels, mask=round_mask)
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                    loss_value = loss.item()
                else:
                    # No participant holds a training vertex this round: the
                    # server skips the update (the forward pass still ran on
                    # every online device).
                    optimizer.zero_grad()
                    loss_value = 0.0
                    skipped_updates += 1

            with no_grad():
                model.eval()
                eval_logits = model.logits(self.batch, self._features)
                predictions = np.argmax(eval_logits.data, axis=1)
            train_acc = float((predictions[split.train_mask] == labels[split.train_mask]).mean())
            val_acc = float((predictions[split.val_mask] == labels[split.val_mask]).mean())
            history.losses.append(loss_value)
            history.train_accuracy.append(train_acc)
            history.val_accuracy.append(val_acc)
            if val_acc >= history.best_val_accuracy:
                history.best_val_accuracy = val_acc
                best_state = model.state_dict()
                # Evaluation is deterministic, so the best epoch's predictions
                # are exactly what re-running the model on the best state
                # would produce — keep them and skip the final forward pass.
                best_predictions = predictions
            if plan is None:
                self._charge_epoch("supervised")
            else:
                self._charge_epoch_faulted("supervised", plan, epoch)
            if log_every and (epoch + 1) % log_every == 0:
                print(
                    f"[lumos supervised] epoch {epoch + 1}/{epochs} "
                    f"loss={loss_value:.4f} val_acc={val_acc:.4f}"
                )

        if best_state is not None:
            model.load_state_dict(best_state)
        if best_predictions is not None:
            final_predictions = best_predictions
        else:
            with no_grad():
                model.eval()
                final_logits = model.logits(self.batch, self._features)
                final_predictions = np.argmax(final_logits.data, axis=1)
        history.test_accuracy = float(
            (final_predictions[split.test_mask] == labels[split.test_mask]).mean()
        )
        history.wall_clock_seconds = time.perf_counter() - start
        self._finalize_fault_stats(plan, "supervised", skipped_updates)
        return model, history

    # ------------------------------------------------------------------ #
    # Unsupervised training (link prediction)
    # ------------------------------------------------------------------ #
    def train_unsupervised(
        self,
        edge_split: EdgeSplit,
        epochs: Optional[int] = None,
        log_every: int = 0,
    ) -> Tuple[LumosModel, UnsupervisedHistory]:
        """Train with the link-prediction objective of Eq. 33."""
        if self.faults is not None:
            raise ValueError(
                "fault injection currently supports the supervised task only; "
                "train_unsupervised requires an empty fault scenario"
            )
        epochs = self._resolve_epochs(epochs)
        with obs.span("trainer.train_unsupervised", epochs=epochs):
            return self._train_unsupervised_impl(edge_split, epochs, log_every)

    def _train_unsupervised_impl(
        self,
        edge_split: EdgeSplit,
        epochs: int,
        log_every: int,
    ) -> Tuple[LumosModel, UnsupervisedHistory]:
        model = LumosModel(self.feature_dim, None, self.config, rng=self.rng)
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        history = UnsupervisedHistory()
        best_state = None
        best_embeddings: Optional[np.ndarray] = None
        start = time.perf_counter()

        train_pairs = np.asarray(edge_split.train_edges, dtype=np.int64)
        edge_codes = self._encode_pairs(train_pairs)

        for epoch in range(epochs):
            model.train()
            embeddings = model.vertex_embeddings(self.batch, self._features)
            negatives = self._sample_negative_pairs(train_pairs, edge_codes)
            loss = link_prediction_loss(
                F.gather(embeddings, train_pairs[:, 0]),
                F.gather(embeddings, train_pairs[:, 1]),
                F.gather(embeddings, negatives[:, 1]),
            )
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

            with no_grad():
                model.eval()
                eval_embeddings = model.vertex_embeddings(self.batch, self._features)
            val_auc = roc_auc_from_embeddings(
                eval_embeddings.data, edge_split.val_edges, edge_split.val_negatives
            )
            history.losses.append(loss.item())
            history.val_auc.append(val_auc)
            if val_auc >= history.best_val_auc:
                history.best_val_auc = val_auc
                best_state = model.state_dict()
                # Evaluation embeddings are deterministic given the state —
                # reuse the best epoch's instead of a final forward pass.
                best_embeddings = eval_embeddings.data
            self._charge_epoch("unsupervised")
            if log_every and (epoch + 1) % log_every == 0:
                print(
                    f"[lumos unsupervised] epoch {epoch + 1}/{epochs} "
                    f"loss={loss.item():.4f} val_auc={val_auc:.4f}"
                )

        if best_state is not None:
            model.load_state_dict(best_state)
        if best_embeddings is None:
            with no_grad():
                model.eval()
                best_embeddings = model.vertex_embeddings(self.batch, self._features).data
        history.test_auc = roc_auc_from_embeddings(
            best_embeddings, edge_split.test_edges, edge_split.test_negatives
        )
        history.wall_clock_seconds = time.perf_counter() - start
        return model, history

    def _encode_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Sorted unique codes ``min * base + max`` of undirected vertex pairs."""
        base = max(self.environment.num_devices, int(pairs.max()) + 1 if pairs.size else 1)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        return np.unique(lo * base + hi)

    def _sample_negative_pairs(self, positive_pairs: np.ndarray, edge_codes: np.ndarray) -> np.ndarray:
        """One negative ``(u, w)`` per positive ``(u, v)`` with ``(u, w)`` not an edge.

        Vectorised rejection sampling: every still-invalid row redraws its
        candidate, up to 20 rounds (after which the last candidate is kept,
        mirroring the bounded retry of the scalar sampler).  ``edge_codes``
        is the sorted pair encoding produced by :meth:`_encode_pairs`.
        """
        num_vertices = self.environment.num_devices
        base = max(num_vertices, int(positive_pairs.max()) + 1 if positive_pairs.size else 1)
        sources = positive_pairs[:, 0].astype(np.int64)
        candidates = np.empty(sources.shape[0], dtype=np.int64)
        pending = np.arange(sources.shape[0])
        for _ in range(20):
            if pending.size == 0:
                break
            draws = self.rng.integers(num_vertices, size=pending.shape[0])
            candidates[pending] = draws
            pending_sources = sources[pending]
            lo = np.minimum(pending_sources, draws)
            hi = np.maximum(pending_sources, draws)
            codes = lo * base + hi
            if edge_codes.size:
                positions = np.minimum(
                    np.searchsorted(edge_codes, codes), edge_codes.shape[0] - 1
                )
                is_edge = edge_codes[positions] == codes
            else:
                is_edge = np.zeros(codes.shape[0], dtype=bool)
            pending = pending[(draws == pending_sources) | is_edge]
        return np.stack([sources, candidates], axis=1)


def roc_auc_from_embeddings(
    embeddings: np.ndarray, positive_edges: np.ndarray, negative_edges: np.ndarray
) -> float:
    """ROC-AUC of inner-product scores on positive vs negative vertex pairs."""
    from ..eval.metrics import roc_auc_score

    positive_edges = np.asarray(positive_edges, dtype=np.int64)
    negative_edges = np.asarray(negative_edges, dtype=np.int64)
    positive_scores = np.sum(
        embeddings[positive_edges[:, 0]] * embeddings[positive_edges[:, 1]], axis=1
    )
    negative_scores = np.sum(
        embeddings[negative_edges[:, 0]] * embeddings[negative_edges[:, 1]], axis=1
    )
    scores = np.concatenate([positive_scores, negative_scores])
    targets = np.concatenate([np.ones(len(positive_scores)), np.zeros(len(negative_scores))])
    return roc_auc_score(targets, scores)
