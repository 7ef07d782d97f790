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

The optimisation loop itself is :func:`repro.nn.fit.fit`, shared with the
baselines: ``train_supervised`` / ``train_unsupervised`` are model set-up plus
the loss, evaluation and per-epoch charging closures they hand it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .. import obs
from ..eval.metrics import accuracy
from ..faults.config import FaultScenarioConfig
from ..faults.plan import FaultPlan
from ..federation.events import MessageKind
from ..federation.simulator import FederatedEnvironment
from ..gnn.gat import GATLayer
from ..gnn.gcn import GCNLayer
from ..gnn.link_prediction import link_prediction_objective, roc_auc_from_embeddings
from ..gnn.models import EncoderConfig, GNNEncoder
from ..nn.backend import get_backend
from ..graph.sparse import symmetric_normalize
from ..graph.splits import EdgeSplit, NodeSplit
from ..nn import functional as F
from ..nn.fit import fit
from ..nn.layers import Linear
from ..nn.loss import cross_entropy
from ..nn.module import Module
from ..nn.shared_rows import SharedRowFeatures
from ..nn.tensor import Tensor
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
    """

    num_nodes: int
    num_vertices: int
    adjacency: sp.csr_matrix
    edge_index: np.ndarray
    layer_input: SharedRowFeatures
    leaf_rows: np.ndarray
    leaf_vertices: np.ndarray
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
    _pooled_edge_index: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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
        ``P Â`` is collapsed once per batch (``FastNumpyBackend.fold_chain``) so the
        final GCN layer plus pooling costs a single sparse product per epoch
        instead of two.  The result is a
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

    def pooled_edge_index(self) -> np.ndarray:
        """The columns of ``edge_index`` that end at a leaf row, in order.

        Pooling (Eq. 31) reads the leaf rows only, and an attention layer's
        row depends on nothing but its own incoming edges: a final GAT layer
        over these edges gives every leaf row the bits of the full layer (the
        same edges, in the same order), and the rows pooling never reads have
        zero gradient either way.  Built lazily and cached on the batch as an
        array of its own, so the backend keeps one edge plan for it.
        """
        if self._pooled_edge_index is None:
            is_leaf = np.zeros(self.num_nodes, dtype=bool)
            is_leaf[self.leaf_rows] = True
            keep = np.flatnonzero(is_leaf[self.edge_index[1]])
            self._pooled_edge_index = np.stack(
                [self.edge_index[0][keep], self.edge_index[1][keep]]
            )
        return self._pooled_edge_index

    def with_initialization(
        self, initialization: EmbeddingInitializationResult
    ) -> "TreeBatch":
        """Re-bind the batch to another LDP exchange of the same construction.

        Returns a batch sharing every epsilon-independent array (adjacency,
        edge indices, leaf maps, pool matrix) with ``self``; only the LDP
        messages of ``layer_input`` are swapped — for exactly the rows a
        from-scratch build would hold for ``initialization``.
        """
        if self.neighbor_rows is None:
            raise ValueError("batch was built without a neighbour-refill recipe")
        rows, own = self.layer_input.rows, self.layer_input.values[: self.num_vertices]
        factored = self._factored(
            rows, own, initialization, self.neighbor_receivers, self.neighbor_senders
        )
        return dataclasses.replace(self, layer_input=factored)

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

        Assembly is pure numpy block arithmetic over every device's tree (or
        star) at once, its neighbour leaves in ascending order; no per-device
        local graph exists.
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

        return cls(
            num_nodes=num_nodes,
            num_vertices=n,
            adjacency=adjacency,
            edge_index=edge_index,
            layer_input=cls._factored(
                feature_rows,
                cls._own_features(environment, feature_dim),
                initialization,
                pair_owners,
                flat_neighbors,
            ),
            leaf_rows=leaf_rows,
            leaf_vertices=leaf_vertices,
            neighbor_rows=neighbor_rows,
            neighbor_receivers=pair_owners,
            neighbor_senders=flat_neighbors,
        )

    @staticmethod
    def _own_features(environment: FederatedEnvironment, feature_dim: int) -> sp.csr_matrix:
        """The devices' raw features, one sparse row per device in id order:
        the only feature a device reads in clear is its own."""
        return sp.csr_matrix(environment.features.reshape(-1, feature_dim))


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
        self.head = (
            Linear(self.encoder.output_dim, num_classes, rng=rng)
            if num_classes is not None
            else None
        )

    def _node_embeddings(self, batch: TreeBatch, features: Tensor) -> Tensor:
        """The encoder's output, exact on the rows pooling reads.

        A GAT final layer attends over the edges that end at a leaf only
        (:meth:`TreeBatch.pooled_edge_index`); its other rows hold the bias.
        """
        final = self.encoder.final_layer
        if isinstance(final, GATLayer):
            hidden = self.encoder.forward_hidden(features, batch)
            return final(hidden, batch.pooled_edge_index())
        return self.encoder(features, batch)

    def vertex_embeddings(self, batch: TreeBatch, features: Tensor) -> Tensor:
        """Run message passing on every tree and mean-pool leaves per vertex (Eq. 31).

        Leaf gather and mean pooling are one sparse product (same maths, one
        kernel instead of three).
        """
        node_embeddings = self._node_embeddings(batch, features)
        return F.sparse_matmul(batch.mean_pool_matrix(), node_embeddings)

    def logits(self, batch: TreeBatch, features: Tensor) -> Tensor:
        """Class logits per vertex (supervised task, Eq. 32)."""
        if self.head is None:
            raise RuntimeError("model was built without a classification head")
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
            hidden = self.encoder.forward_hidden(features, batch)
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
        node_embeddings = self._node_embeddings(batch, features)
        return F.fused_pool_head(
            node_embeddings,
            batch.mean_pool_matrix(),
            self.head.weight,
            self.head.bias,
        )


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


# --------------------------------------------------------------------------- #
# Training histories
# --------------------------------------------------------------------------- #
@dataclass
class SupervisedHistory:
    """Per-epoch record of a supervised training run."""

    losses: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    test_accuracy: float = 0.0
    best_val_accuracy: float = 0.0


@dataclass
class UnsupervisedHistory:
    """Per-epoch record of an unsupervised training run."""

    losses: List[float] = field(default_factory=list)
    val_auc: List[float] = field(default_factory=list)
    test_auc: float = 0.0
    best_val_auc: float = 0.0


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
        if not environment.num_devices:
            raise ValueError("environment has no devices")
        self.environment = environment
        self.construction = construction
        self.initialization = initialization
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng()
        self.cost_model = cost_model if cost_model is not None else EpochCostModel()
        # An empty scenario is normalised to None: the fault-free run is the
        # ``plan is None`` case of every step below.
        self.faults = faults if faults is not None and not faults.is_empty() else None
        #: Populated by :meth:`train_supervised`; under an empty plan it
        #: reports full participation.
        self.fault_stats: Optional[Dict[str, float]] = None

        self.feature_dim = int(initialization.released.shape[1])
        # A pre-assembled union graph (e.g. the pipeline's cached tree_batch
        # artifact) can be injected; otherwise it is built here.
        self.batch = (
            batch
            if batch is not None
            else TreeBatch.build(environment, construction, initialization, self.feature_dim)
        )
        # task -> (rounds, compute costs, ids) of every device in one epoch:
        # static once the assignment is installed, charged every epoch.
        self._epoch_work: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # System metrics
    # ------------------------------------------------------------------ #
    def tree_sizes(self) -> np.ndarray:
        """Number of local-graph nodes per device, indexed by device id (as
        every per-device array of the trainer is)."""
        workloads = np.bincount(self.batch.neighbor_receivers, minlength=self.batch.num_vertices)
        return local_graph_sizes(workloads, self.construction.used_virtual_nodes)

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
        # One batch entry per (device, selected neighbour) pair.
        num_devices = self.environment.num_devices
        workloads = np.bincount(self.batch.neighbor_receivers, minlength=num_devices)
        incoming = np.bincount(self.batch.neighbor_senders, minlength=num_devices)

        rounds = workloads + incoming + 1
        if task == "unsupervised":
            rounds = rounds + 2 * np.diff(self.environment.indptr)
        return {"per_device_rounds": rounds, "workloads": workloads, "incoming": incoming}

    def simulated_epoch_time(self, task: str = "supervised") -> float:
        """Simulated wall-clock duration of one synchronous epoch (Fig. 8b)."""
        profile = self.communication_profile(task)
        return self.cost_model.epoch_time(self.tree_sizes(), profile["per_device_rounds"])

    def _device_work(self, task: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-device ``(rounds, compute costs, ids)`` of one ``task`` epoch, memoised."""
        if task not in self._epoch_work:
            self._epoch_work[task] = (
                self.communication_profile(task)["per_device_rounds"],
                self.tree_sizes().astype(np.float64),
                np.arange(self.environment.num_devices),
            )
        return self._epoch_work[task]

    def _charge_epoch(self, task: str, plan: Optional[FaultPlan], epoch: int) -> None:
        """Charge one epoch's communication and compute to the ledger (aggregated).

        Without a plan every device works and sends.  Under one, only the
        round's online devices do: dropped-out devices are charged nothing,
        while evicted stragglers and lost updates *did* transmit, so their
        rounds stay in the charged total and the undelivered payload is
        additionally logged on the ledger's drop channel.
        """
        rounds, costs, devices = self._device_work(task)
        ledger = self.environment.ledger
        if plan is not None:
            online = plan.online[epoch]
            self.environment.set_availability(online)
            devices = np.flatnonzero(online)
            rounds, costs = rounds[devices], costs[devices]
        total_rounds = int(rounds.sum())
        ledger.send(
            sender=0,
            recipient=0,
            kind=MessageKind.EMBEDDING_EXCHANGE,
            size_bytes=total_rounds * self.config.output_dim * 8,
            description=f"epoch-{task}-rounds:{total_rounds}",
        )
        if devices.size:
            ledger.compute_many(devices, costs, description="tree-gnn-epoch")
        if plan is not None:
            undelivered = (plan.evicted[epoch] | plan.lost[epoch])[devices]
            undelivered_count = int(undelivered.sum())
            if undelivered_count:
                ledger.drop(
                    sender=0,
                    recipient=0,
                    kind=MessageKind.EMBEDDING_EXCHANGE,
                    size_bytes=int(rounds[undelivered].sum()) * self.config.output_dim * 8,
                    description=f"epoch-{task}-undelivered:{undelivered_count}",
                )
        self.environment.next_round()

    # ------------------------------------------------------------------ #
    # Fault injection (graceful degradation)
    # ------------------------------------------------------------------ #
    def _fault_epoch_times(self, plan: FaultPlan, task: str) -> np.ndarray:
        """Per-round simulated epoch durations under the fault schedule.

        Each round ends when the slowest *counted* device finishes: offline
        devices do not run, and evicted stragglers are past the deadline so
        the server stops waiting for them — which is exactly how a round
        deadline caps straggler damage.
        """
        rounds, costs, _ = self._device_work(task)
        per_device = (
            costs * self.cost_model.compute_per_node
            + rounds.astype(np.float64) * self.cost_model.time_per_round
        )
        counted = plan.online & ~plan.evicted
        effective = per_device[None, :] * plan.latency * counted
        return self.cost_model.fixed_overhead + effective.max(axis=1)

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
        for counter in (
            "skipped_updates", "offline_device_rounds", "evicted_device_rounds", "lost_update_rounds"
        ):
            obs.add_counter(f"trainer.{counter}", self.fault_stats[counter])

    # ------------------------------------------------------------------ #
    # Supervised training (node classification)
    # ------------------------------------------------------------------ #
    def train_supervised(
        self,
        labels: np.ndarray,
        split: NodeSplit,
        epochs: Optional[int] = None,
    ) -> Tuple[LumosModel, SupervisedHistory]:
        """Train for node classification and return the model and its history."""
        epochs = self.config.epochs if epochs is None else int(epochs)
        with obs.span("trainer.train_supervised", epochs=epochs):
            labels = np.asarray(labels, dtype=np.int64)
            model = LumosModel(self.feature_dim, int(labels.max()) + 1, self.config, rng=self.rng)
            plan = (
                FaultPlan.compile(self.faults, self.environment.num_devices, epochs)
                if self.faults is not None
                else None
            )

            def loss(epoch: int) -> Optional[Tensor]:
                logits = model.logits(self.batch, self.batch.layer_input)
                mask = split.train_mask
                if plan is not None:
                    # Graceful degradation: only this round's participants
                    # contribute training vertices.  ``cross_entropy`` divides
                    # by the mask sum, so survivors are upweighted to keep the
                    # gradient an unbiased average over present devices
                    # (FedDropoutAvg-style participation reweighting).  With
                    # no participant holding a training vertex the server
                    # skips the update (the forward pass still ran on every
                    # online device).
                    mask = np.logical_and(mask, plan.participating[epoch])
                    if not mask.any():
                        return None
                return cross_entropy(logits, labels, mask=mask)

            def evaluate() -> Tuple[float, np.ndarray]:
                logits = model.logits(self.batch, self.batch.layer_input)
                predictions = np.argmax(logits.data, axis=1)
                return accuracy(labels, predictions, split.val_mask), predictions

            run = fit(
                model, self.config.learning_rate, epochs, loss, evaluate,
                lambda epoch: self._charge_epoch("supervised", plan, epoch),
            )
            self._finalize_fault_stats(plan, "supervised", run.skipped_updates)
            return model, SupervisedHistory(
                losses=run.losses,
                val_accuracy=run.metrics,
                test_accuracy=accuracy(labels, run.best_output, split.test_mask),
                best_val_accuracy=run.best_metric,
            )

    # ------------------------------------------------------------------ #
    # Unsupervised training (link prediction)
    # ------------------------------------------------------------------ #
    def train_unsupervised(
        self,
        edge_split: EdgeSplit,
        epochs: Optional[int] = None,
    ) -> Tuple[LumosModel, UnsupervisedHistory]:
        """Train with the link-prediction objective of Eq. 33."""
        if self.faults is not None:
            raise ValueError(
                "fault injection currently supports the supervised task only; "
                "train_unsupervised requires an empty fault scenario"
            )
        epochs = self.config.epochs if epochs is None else int(epochs)
        with obs.span("trainer.train_unsupervised", epochs=epochs):
            model = LumosModel(self.feature_dim, None, self.config, rng=self.rng)
            objective = link_prediction_objective(
                edge_split.train_edges, self.environment.num_devices, self.rng
            )

            def loss(_epoch: int) -> Tensor:
                return objective(model.vertex_embeddings(self.batch, self.batch.layer_input))

            def evaluate() -> Tuple[float, np.ndarray]:
                embeddings = model.vertex_embeddings(self.batch, self.batch.layer_input).data
                return (
                    roc_auc_from_embeddings(
                        embeddings, edge_split.val_edges, edge_split.val_negatives
                    ),
                    embeddings,
                )

            run = fit(
                model, self.config.learning_rate, epochs, loss, evaluate,
                lambda epoch: self._charge_epoch("unsupervised", None, epoch),
            )
            return model, UnsupervisedHistory(
                losses=run.losses,
                val_auc=run.metrics,
                test_auc=roc_auc_from_embeddings(
                    run.best_output, edge_split.test_edges, edge_split.test_negatives
                ),
                best_val_auc=run.best_metric,
            )
