"""Picklable work items: the unit the parallel runtime schedules.

A work item is a *self-contained, content-keyed* description of one engine
invocation — an epsilon-sweep point, an ablation arm, a baseline training
run, one cell of a figure grid.  Self-contained means a worker process can
execute it from the pickled description alone (graphs travel as
:class:`GraphSpec`, never as live object references); content-keyed means
two items that would compute the same result have the same
:meth:`WorkItem.key`, so a :class:`~repro.runtime.plan.WorkPlan` dedupes
them to one execution.

Every :meth:`WorkItem.execute` returns the same payload schema, so merge and
equivalence checks never depend on the item flavour: ``value`` (the number
or array the evaluation harness consumes) plus the serialized side state
that makes parallel execution auditable — ``ledger_summary``,
``ledger_records`` (the canonical communication-ledger transcript, only
under ``keep_transcript=True``), ``accountant`` (the secure-comparison
counters) and ``rng_state`` (the final RNG state).  The runtime's
determinism contract is that all of these are bit-for-bit identical no
matter which executor (or worker) ran the item.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..core.config import LumosConfig
from ..engine.fingerprint import fingerprint_graph, fingerprint_value, stage_key
from ..engine.store import ArtifactStore
from ..graph import load_dataset, split_edges, split_nodes
from ..graph.graph import Graph

#: Tasks a :class:`LumosItem` knows how to run.
LUMOS_TASKS = ("supervised", "unsupervised", "workload", "system_cost", "robustness")

#: Baseline methods a :class:`BaselineItem` knows how to train, per task.
BASELINE_METHODS = {
    "supervised": ("centralized", "lpgnn", "naive_fedgnn"),
    "unsupervised": ("centralized", "naive_fedgnn"),
}


# --------------------------------------------------------------------------- #
# Graph hand-off
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphSpec:
    """How a worker obtains the experiment's graph.

    Preferred form: a dataset recipe (``name``/``seed``/``num_nodes``) —
    cheap to pickle and reproduced deterministically by
    :func:`repro.graph.load_dataset` in any process.  An in-memory graph can
    be shipped inline instead (``graph=``); its fingerprint then keys the
    item, so a recipe item and an inline item never alias even when they
    would load equal bytes.
    """

    dataset: Optional[str] = None
    seed: int = 0
    num_nodes: Optional[int] = None
    graph: Optional[Graph] = None

    def __post_init__(self) -> None:
        if (self.dataset is None) == (self.graph is None):
            raise ValueError("provide exactly one of dataset= or graph=")

    def load(self) -> Graph:
        """Materialise the graph (memoised per process and per spec)."""
        if self.graph is not None:
            return self.graph
        token = (self.dataset, self.seed, self.num_nodes)
        cached = _GRAPH_CACHE.get(token)
        if cached is None:
            cached = load_dataset(self.dataset, seed=self.seed, num_nodes=self.num_nodes)
            _GRAPH_CACHE[token] = cached
        return cached

    def fingerprint(self) -> str:
        if self.graph is not None:
            return f"graph:{fingerprint_graph(self.graph)}"
        return f"dataset:{self.dataset}:{self.seed}:{self.num_nodes}"


#: Per-process memo of loaded dataset graphs: a worker executing several
#: items of one sweep loads (and fingerprints, and normalizes) the graph
#: once.  Keyed by recipe, so distinct specs never alias.
_GRAPH_CACHE: Dict[tuple, Graph] = {}


# --------------------------------------------------------------------------- #
# Item taxonomy
# --------------------------------------------------------------------------- #
class WorkItem:
    """One schedulable unit of work.

    Subclasses implement :meth:`key` (content fingerprint — equal keys mean
    "same computation", the dedupe and result-merge identity), and
    :meth:`execute` (run in whatever process the executor chose).
    :meth:`stage_chain` additionally exposes the engine stage fingerprints
    of pipeline-backed items so the scheduler can compute shared prefixes
    once (items without a pipeline return ``()``).
    """

    #: Optional human label (worker logs, failure reports).
    label: str = ""
    #: Optional per-item wall-clock budget (seconds); overrides the
    #: executor's default when set.
    timeout: Optional[float] = None

    def key(self) -> str:
        raise NotImplementedError

    def stage_chain(self) -> Tuple[Tuple[str, str], ...]:
        return ()

    def execute(self, store: ArtifactStore) -> Dict[str, Any]:
        raise NotImplementedError


def _empty_payload(value: Any) -> Dict[str, Any]:
    return {
        "value": value,
        "ledger_summary": None,
        "ledger_records": None,
        "accountant": None,
        "rng_state": None,
    }


@dataclass(frozen=True)
class LumosItem(WorkItem):
    """One full Lumos engine run: pipeline stages + the task on top.

    ``task`` selects what is computed after the pipeline: ``supervised`` /
    ``unsupervised`` train and return the test metric (mirroring
    ``LumosSystem.run_supervised`` / ``run_unsupervised``), ``workload``
    returns the per-device workload array after construction, and
    ``system_cost`` the Fig. 8 communication/epoch-time entry.  This is the
    one place each of those experiment bodies exists: every
    :mod:`repro.eval.runner` entry point schedules ``LumosItem`` arms.
    """

    graph_spec: GraphSpec = field(default_factory=lambda: GraphSpec(dataset="facebook"))
    config: LumosConfig = field(default_factory=LumosConfig)
    task: str = "supervised"
    split_seed: int = 0
    label: str = ""
    #: Ship the full canonical ledger transcript in the payload (tests,
    #: audits).  Opt-in because sorting and shipping the record list can
    #: dwarf the value at paper scale.
    keep_transcript: bool = False
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.task not in LUMOS_TASKS:
            raise ValueError(f"task must be one of {LUMOS_TASKS}, got {self.task!r}")

    def key(self) -> str:
        parts = [
            "lumos",
            self.graph_spec.fingerprint(),
            fingerprint_value(self.config.constructor),
            fingerprint_value(self.config.trainer),
            f"seed={self.config.seed}",
            f"task={self.task}",
            f"split={self.split_seed}",
            f"transcript={self.keep_transcript}",
        ]
        # The fault scenario enters the fingerprint only when it can perturb
        # the run: the component is omitted for empty scenarios so the
        # fault-free key reproduces the pre-fault cache keys byte-for-byte,
        # while distinct non-empty scenarios never share cached results.
        if not self.config.faults.is_empty():
            parts.append(f"faults={fingerprint_value(self.config.faults)}")
        return stage_key(*parts)

    def stage_chain(self) -> Tuple[Tuple[str, str], ...]:
        from ..core.lumos import normalized_graph
        from ..engine.pipeline import build_lumos_pipeline
        from ..engine.stages import PipelineContext

        graph = normalized_graph(self.graph_spec.load())
        pipeline = build_lumos_pipeline(store=ArtifactStore())
        context = PipelineContext(
            graph=graph, config=self.config, rng=np.random.default_rng(self.config.seed)
        )
        keys = pipeline.stage_keys(context)
        return tuple((stage.name, keys[stage.name]) for stage in pipeline.stages)

    def execute(self, store: ArtifactStore) -> Dict[str, Any]:
        from ..core.lumos import LumosSystem

        graph = self.graph_spec.load()
        system = LumosSystem(graph, self.config, store=store)
        if self.task == "supervised":
            split = split_nodes(graph, seed=self.split_seed)
            value = system.run_supervised(split).test_accuracy
        elif self.task == "unsupervised":
            edge_split = split_edges(graph, seed=self.split_seed)
            value = system.run_unsupervised(edge_split).test_auc
        elif self.task == "robustness":
            split = split_nodes(graph, seed=self.split_seed)
            result = system.run_supervised(split)
            trainer = system.trainer()
            stats = trainer.fault_stats or {}
            traffic = system.environment.ledger.summary()
            value = {
                "test_accuracy": result.test_accuracy,
                "best_val_accuracy": result.best_val_accuracy,
                "rounds_per_device": result.communication_rounds_per_device,
                "mean_epoch_time": stats.get(
                    "mean_epoch_time", result.simulated_epoch_time
                ),
                "mean_participation": stats.get("mean_participation", 1.0),
                "offline_device_rounds": stats.get("offline_device_rounds", 0.0),
                "evicted_device_rounds": stats.get("evicted_device_rounds", 0.0),
                "lost_update_rounds": stats.get("lost_update_rounds", 0.0),
                "skipped_updates": stats.get("skipped_updates", 0.0),
                "dropped_messages": traffic.get("dropped_messages", 0.0),
                "dropped_bytes": traffic.get("dropped_bytes", 0.0),
            }
        elif self.task == "workload":
            value = system.workload_distribution()
        else:  # system_cost
            trainer = system.trainer()
            entry: Dict[str, float] = {}
            for task in ("supervised", "unsupervised"):
                profile = trainer.communication_profile(task)
                entry[f"{task}_rounds_per_device"] = float(
                    profile["per_device_rounds"].mean()
                )
                entry[f"{task}_epoch_time"] = trainer.simulated_epoch_time(task)
            entry["max_workload"] = float(system.workload_distribution().max())
            value = entry

        construction = system.construct_trees()
        ledger = system.environment.ledger
        return {
            "value": value,
            "ledger_summary": ledger.summary(system.environment.num_devices),
            "ledger_records": (
                tuple(ledger.message_records()) if self.keep_transcript else None
            ),
            "accountant": construction.transcript.snapshot(),
            "rng_state": system.rng.bit_generator.state,
        }


@dataclass(frozen=True)
class BaselineItem(WorkItem):
    """One baseline training arm (centralized / LPGNN / naive FedGNN)."""

    method: str = "centralized"
    task: str = "supervised"
    graph_spec: GraphSpec = field(default_factory=lambda: GraphSpec(dataset="facebook"))
    backbone: str = "gcn"
    epochs: int = 80
    seed: int = 0
    split_seed: int = 0
    label: str = ""
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        methods = BASELINE_METHODS.get(self.task)
        if methods is None:
            raise ValueError(f"task must be one of {tuple(BASELINE_METHODS)}, got {self.task!r}")
        if self.method not in methods:
            raise ValueError(
                f"method must be one of {methods} for task {self.task!r}, got {self.method!r}"
            )

    def key(self) -> str:
        return stage_key(
            "baseline",
            self.method,
            self.task,
            self.graph_spec.fingerprint(),
            f"backbone={self.backbone}",
            f"epochs={self.epochs}",
            f"seed={self.seed}",
            f"split={self.split_seed}",
        )

    def execute(self, store: ArtifactStore) -> Dict[str, Any]:
        from .. import baselines

        graph = self.graph_spec.load()
        if self.task == "supervised":
            split = split_nodes(graph, seed=self.split_seed)
            trainers = {
                "centralized": baselines.train_centralized_supervised,
                "lpgnn": baselines.train_lpgnn_supervised,
                "naive_fedgnn": baselines.train_naive_fedgnn_supervised,
            }
            result = trainers[self.method](
                graph, split, backbone=self.backbone, epochs=self.epochs, seed=self.seed
            )
            return _empty_payload(result.test_accuracy)
        edge_split = split_edges(graph, seed=self.split_seed)
        trainers = {
            "centralized": baselines.train_centralized_unsupervised,
            "naive_fedgnn": baselines.train_naive_fedgnn_unsupervised,
        }
        result = trainers[self.method](
            graph, edge_split, backbone=self.backbone, epochs=self.epochs, seed=self.seed
        )
        return _empty_payload(result.test_auc)


@dataclass(frozen=True)
class CallableItem(WorkItem):
    """An arbitrary importable callable — the escape hatch for custom grids.

    ``target`` is ``"package.module:function"``; arguments must be picklable
    *and* fingerprintable (plain scalars/containers/dataclasses — see
    :func:`repro.engine.fingerprint.fingerprint_value`), which is what makes
    the item content-keyed rather than identity-keyed.
    """

    target: str = ""
    args: tuple = ()
    kwargs: tuple = ()  # sorted (name, value) pairs; a dict is not hashable
    label: str = ""
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if ":" not in self.target:
            raise ValueError("target must look like 'package.module:function'")

    def key(self) -> str:
        return stage_key(
            "callable",
            self.target,
            fingerprint_value(tuple(self.args)),
            fingerprint_value(tuple(self.kwargs)),
        )

    def execute(self, store: ArtifactStore) -> Dict[str, Any]:
        module_name, _, attribute = self.target.partition(":")
        function = getattr(importlib.import_module(module_name), attribute)
        return _empty_payload(function(*self.args, **dict(self.kwargs)))
