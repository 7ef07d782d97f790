"""Experiment runner: one entry point per comparison the paper makes.

Every function takes an :class:`ExperimentScale` so the same code drives the
quick benchmark configurations (small synthetic graphs, tens of epochs) and
larger runs.  The returned dictionaries are consumed by
:mod:`repro.eval.figures` and by the pytest benchmarks.

All Lumos runs go through the staged execution engine: the sweeps share one
content-keyed :class:`~repro.engine.store.ArtifactStore`, so stages whose
inputs do not change between sweep points (e.g. tree construction across an
epsilon sweep, the whole pre-training pipeline across a backbone sweep) are
computed once and replayed bit-for-bit afterwards.

Every entry point also takes an ``executor=`` knob (default ``"serial"``,
the in-process loop below).  ``executor="process"`` (optionally with
``max_workers=``) schedules the independent arms — sweep points, ablation
variants, baseline comparisons — across a worker-process pool via
:mod:`repro.runtime`: the shared pipeline prefix is computed once and handed
to workers through a disk-spill store, and the merged results are
bit-for-bit identical to the serial path (metrics, canonical ledger
transcripts, accountant totals).  An :class:`~repro.runtime.executor.Executor`
instance is accepted too (e.g. to pin a spill directory, retries or
timeouts, or to inspect scheduling statistics afterwards).  The ``store=``
parameter only affects the serial path — worker processes always hydrate
from the executor's shared spill store.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

import numpy as np

from .. import obs
from ..baselines import (
    train_centralized_supervised,
    train_centralized_unsupervised,
    train_lpgnn_supervised,
    train_naive_fedgnn_supervised,
    train_naive_fedgnn_unsupervised,
)
from ..core import LumosSystem, default_config_for
from ..core.config import LumosConfig, RuntimeConfig
from ..engine import ArtifactStore, default_store
from ..faults import FaultScenarioConfig, default_robustness_scenarios
from ..graph import Graph, load_dataset, split_edges, split_nodes
from ..runtime import (
    BaselineItem,
    CallableItem,
    Executor,
    GraphSpec,
    LumosItem,
    SerialExecutor,
    WorkPlan,
    resolve_executor,
)
from .metrics import relative_change

#: Type of the ``executor=`` knob shared by every entry point: an executor
#: name, an :class:`~repro.runtime.executor.Executor` instance, or a
#: recorded preference (``config.runtime``).
ExecutorArg = Union[str, Executor, RuntimeConfig, None]


def _traced_entry(fn):
    """Wrap an experiment entry point in a ``runner.<name>`` span.

    A no-op (one ``None`` check) unless a tracer is active, so the decorator
    is invisible to untraced callers — see the contract in :mod:`repro.obs`.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(f"runner.{fn.__name__}"):
            return fn(*args, **kwargs)

    return wrapper


@dataclass(frozen=True)
class ExperimentScale:
    """Size / effort knobs shared by all experiments."""

    num_nodes: Optional[int] = 400
    epochs: int = 80
    mcmc_iterations: int = 150
    seed: int = 0

    @classmethod
    def small(cls) -> "ExperimentScale":
        """Quick configuration used by the pytest benchmarks."""
        return cls(num_nodes=300, epochs=50, mcmc_iterations=100, seed=0)

    @classmethod
    def medium(cls) -> "ExperimentScale":
        """Configuration closer to the paper's setup (minutes per figure)."""
        return cls(num_nodes=800, epochs=150, mcmc_iterations=300, seed=0)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Paper-scale run (uses the full synthetic graphs and 300 epochs)."""
        return cls(num_nodes=None, epochs=300, mcmc_iterations=1000, seed=0)


def _prepare(dataset: str, scale: ExperimentScale) -> Graph:
    return load_dataset(dataset, seed=scale.seed, num_nodes=scale.num_nodes)


def _graph_spec(dataset: str, scale: ExperimentScale) -> GraphSpec:
    """The picklable recipe workers rebuild ``_prepare``'s graph from."""
    return GraphSpec(dataset=dataset, seed=scale.seed, num_nodes=scale.num_nodes)


def _lumos_item(
    dataset: str,
    scale: ExperimentScale,
    task: str,
    config: LumosConfig,
    label: str,
) -> LumosItem:
    return LumosItem(
        graph_spec=_graph_spec(dataset, scale),
        config=config,
        task=task,
        split_seed=scale.seed,
        label=label,
    )


def _lumos_config(dataset: str, scale: ExperimentScale, backbone: str, epsilon: float = 2.0) -> LumosConfig:
    return (
        default_config_for(dataset)
        .with_mcmc_iterations(scale.mcmc_iterations)
        .with_epochs(scale.epochs)
        .with_backbone(backbone)
        .with_epsilon(epsilon)
        .with_seed(scale.seed)
    )


# --------------------------------------------------------------------------- #
# Fig. 3 — supervised accuracy comparison
# --------------------------------------------------------------------------- #
def _comparison_parallel(
    dataset: str,
    backbone: str,
    scale: ExperimentScale,
    methods: List[str],
    task: str,
    executor: Executor,
) -> Dict[str, float]:
    """Process-pool path shared by the Fig. 3 / Fig. 4 comparisons."""
    spec = _graph_spec(dataset, scale)
    plan = WorkPlan()
    keys: Dict[str, str] = {}
    for method in methods:
        if method == "lumos":
            keys[method] = plan.add(
                _lumos_item(
                    dataset, scale, task,
                    _lumos_config(dataset, scale, backbone),
                    label=f"lumos/{task}/{dataset}/{backbone}",
                )
            )
        else:
            keys[method] = plan.add(
                BaselineItem(
                    method=method,
                    task=task,
                    graph_spec=spec,
                    backbone=backbone,
                    epochs=scale.epochs,
                    seed=scale.seed,
                    split_seed=scale.seed,
                    label=f"{method}/{task}/{dataset}/{backbone}",
                )
            )
    report = executor.execute(plan)
    return {method: report.records[key].value for method, key in keys.items()}


@_traced_entry
def run_supervised_comparison(
    dataset: str,
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    methods: Optional[List[str]] = None,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, float]:
    """Test accuracy of Lumos and the baselines on one dataset + backbone."""
    methods = methods or ["lumos", "centralized", "lpgnn", "naive_fedgnn"]
    resolved = resolve_executor(executor, max_workers)
    if resolved is not None:
        return _comparison_parallel(dataset, backbone, scale, methods, "supervised", resolved)
    graph = _prepare(dataset, scale)
    split = split_nodes(graph, seed=scale.seed)
    results: Dict[str, float] = {}

    if "lumos" in methods:
        system = LumosSystem(graph, _lumos_config(dataset, scale, backbone))
        results["lumos"] = system.run_supervised(split).test_accuracy
    if "centralized" in methods:
        results["centralized"] = train_centralized_supervised(
            graph, split, backbone=backbone, epochs=scale.epochs, seed=scale.seed
        ).test_accuracy
    if "lpgnn" in methods:
        results["lpgnn"] = train_lpgnn_supervised(
            graph, split, backbone=backbone, epochs=scale.epochs, seed=scale.seed
        ).test_accuracy
    if "naive_fedgnn" in methods:
        results["naive_fedgnn"] = train_naive_fedgnn_supervised(
            graph, split, backbone=backbone, epochs=scale.epochs, seed=scale.seed
        ).test_accuracy
    return results


# --------------------------------------------------------------------------- #
# Fig. 4 — unsupervised (link prediction) comparison
# --------------------------------------------------------------------------- #
@_traced_entry
def run_unsupervised_comparison(
    dataset: str,
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    methods: Optional[List[str]] = None,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, float]:
    """Test ROC-AUC of Lumos, centralized and naive FedGNN."""
    methods = methods or ["lumos", "centralized", "naive_fedgnn"]
    resolved = resolve_executor(executor, max_workers)
    if resolved is not None:
        return _comparison_parallel(dataset, backbone, scale, methods, "unsupervised", resolved)
    graph = _prepare(dataset, scale)
    edge_split = split_edges(graph, seed=scale.seed)
    results: Dict[str, float] = {}

    if "lumos" in methods:
        system = LumosSystem(graph, _lumos_config(dataset, scale, backbone))
        results["lumos"] = system.run_unsupervised(edge_split).test_auc
    if "centralized" in methods:
        results["centralized"] = train_centralized_unsupervised(
            graph, edge_split, backbone=backbone, epochs=scale.epochs, seed=scale.seed
        ).test_auc
    if "naive_fedgnn" in methods:
        results["naive_fedgnn"] = train_naive_fedgnn_unsupervised(
            graph, edge_split, backbone=backbone, epochs=scale.epochs, seed=scale.seed
        ).test_auc
    return results


# --------------------------------------------------------------------------- #
# Fig. 5 — sensitivity to the privacy budget
# --------------------------------------------------------------------------- #
@_traced_entry
def run_epsilon_sweep(
    dataset: str,
    task: str = "supervised",
    epsilons: Optional[List[float]] = None,
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[float, float]:
    """Lumos accuracy / AUC as a function of the privacy budget ``epsilon``.

    Epsilon only affects the LDP exchange onwards: the partition and the tree
    construction are computed for the first point and replayed from the
    artifact store for every other point.  Under ``executor="process"`` the
    shared prefix is computed once and the per-point thresholding + training
    fan out across workers (results bit-for-bit identical to serial).
    """
    epsilons = epsilons or [0.5, 1.0, 2.0, 4.0]
    resolved = resolve_executor(executor, max_workers)
    if resolved is not None:
        plan = WorkPlan()
        keys = {
            epsilon: plan.add(
                _lumos_item(
                    dataset, scale, task,
                    _lumos_config(dataset, scale, backbone, epsilon=epsilon),
                    label=f"sweep/{task}/{dataset}/eps={epsilon}",
                )
            )
            for epsilon in epsilons
        }
        report = resolved.execute(plan)
        return {epsilon: report.records[key].value for epsilon, key in keys.items()}
    store = store if store is not None else default_store()
    graph = _prepare(dataset, scale)
    systems = [
        LumosSystem(
            graph, _lumos_config(dataset, scale, backbone, epsilon=epsilon), store=store
        )
        for epsilon in epsilons
    ]
    if task == "supervised":
        split = split_nodes(graph, seed=scale.seed)
        return {
            epsilon: system.run_supervised(split).test_accuracy
            for epsilon, system in zip(epsilons, systems)
        }
    edge_split = split_edges(graph, seed=scale.seed)
    return {
        epsilon: system.run_unsupervised(edge_split).test_auc
        for epsilon, system in zip(epsilons, systems)
    }


# --------------------------------------------------------------------------- #
# Fig. 6 — ablation of virtual nodes and tree trimming (accuracy side)
# --------------------------------------------------------------------------- #
@_traced_entry
def run_ablation(
    dataset: str,
    task: str = "supervised",
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, float]:
    """Lumos vs Lumos w.o. virtual nodes vs Lumos w.o. tree trimming.

    The three variants share the node-level partition (and, where the
    constructor configuration matches, the construction) via the store.
    Under ``executor="process"`` each arm — including its per-arm tree
    construction — runs on its own worker.
    """
    configs = {
        "lumos": _lumos_config(dataset, scale, backbone),
        "lumos_wo_vn": _lumos_config(dataset, scale, backbone).without_virtual_nodes(),
        "lumos_wo_tt": _lumos_config(dataset, scale, backbone).without_tree_trimming(),
    }
    resolved = resolve_executor(executor, max_workers)
    if resolved is not None:
        plan = WorkPlan()
        keys = {
            name: plan.add(
                _lumos_item(
                    dataset, scale, task, config,
                    label=f"ablation/{task}/{dataset}/{name}",
                )
            )
            for name, config in configs.items()
        }
        report = resolved.execute(plan)
        return {name: report.records[key].value for name, key in keys.items()}
    store = store if store is not None else default_store()
    graph = _prepare(dataset, scale)
    results: Dict[str, float] = {}
    for name, config in configs.items():
        system = LumosSystem(graph, config, store=store)
        if task == "supervised":
            split = split_nodes(graph, seed=scale.seed)
            results[name] = system.run_supervised(split).test_accuracy
        else:
            edge_split = split_edges(graph, seed=scale.seed)
            results[name] = system.run_unsupervised(edge_split).test_auc
    return results


# --------------------------------------------------------------------------- #
# Robustness — accuracy/system metrics under unreliable federations
# --------------------------------------------------------------------------- #
@_traced_entry
def run_robustness_sweep(
    dataset: str,
    scenarios: Optional[Dict[str, FaultScenarioConfig]] = None,
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Supervised Lumos metrics per fault scenario, relative to a baseline.

    Each scenario is one ablation arm: the same dataset/config trained under
    a different :class:`~repro.faults.FaultScenarioConfig`.  Scenarios only
    engage at training time, so every arm shares the full pipeline prefix
    (partition, construction, LDP init, tree batch) through the store; the
    per-arm work-item keys differ by the scenario fingerprint, so cached
    training results never mix scenarios.  A fault-free ``baseline`` arm is
    added when the grid lacks one, and every arm reports its accuracy delta
    vs that baseline (``accuracy_vs_baseline_percent``).

    Both the serial path and ``executor="process"`` run the same work plan —
    serially inline or across the worker pool — and are bit-for-bit
    identical (the robustness chapter of the runtime determinism contract).
    """
    scenarios = (
        dict(scenarios) if scenarios is not None else default_robustness_scenarios()
    )
    if not any(config.is_empty() for config in scenarios.values()):
        scenarios = {"baseline": FaultScenarioConfig(), **scenarios}
    plan = WorkPlan()
    keys = {
        name: plan.add(
            _lumos_item(
                dataset,
                scale,
                "robustness",
                _lumos_config(dataset, scale, backbone).with_faults(config),
                label=f"robustness/{dataset}/{name}",
            )
        )
        for name, config in scenarios.items()
    }
    resolved = resolve_executor(executor, max_workers)
    if resolved is None:
        # The serial path executes the identical plan inline so both paths
        # share one code path per item (and the plan's dedupe: two empty
        # scenarios collapse to one execution).
        resolved = SerialExecutor(store=store if store is not None else default_store())
    report = resolved.execute(plan)
    results = {
        name: dict(report.records[key].value) for name, key in keys.items()
    }
    baseline_name = next(
        name for name, config in scenarios.items() if config.is_empty()
    )
    baseline_accuracy = results[baseline_name]["test_accuracy"]
    for entry in results.values():
        entry["accuracy_vs_baseline_percent"] = relative_change(
            baseline_accuracy, entry["test_accuracy"]
        )
    # Surface the runtime's retry/backoff provenance per arm.  On the serial
    # path (and any clean process run) these are exactly 1.0 / 0.0, so the
    # serial-vs-process bit-identity contract extends to them; a chaotic or
    # flaky run shows its attempt history right in the sweep results.
    for name, key in keys.items():
        record = report.records[key]
        results[name]["attempts"] = float(record.attempts)
        results[name]["failed_attempts"] = float(
            len(report.failure_attempts.get(key, ()))
        )
    return results


# --------------------------------------------------------------------------- #
# Churn maintenance — delta-maintained tree vs rebuild, under joins/leaves
# --------------------------------------------------------------------------- #
@_traced_entry
def run_churn_maintenance(
    dataset: str = "facebook",
    scenario: Optional[FaultScenarioConfig] = None,
    rounds: int = 24,
    scale: ExperimentScale = ExperimentScale(),
    staleness_bound: float = 0.25,
    rebuild_bound: float = 1.0,
    check_every: int = 6,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, float]:
    """Maintain a constructed tree through a churn schedule; report metrics.

    The fault plan's joins/leaves become journalled delta mutations of a
    :class:`~repro.maintenance.MaintainedTree`, with a
    :class:`~repro.maintenance.StalenessMonitor` check every ``check_every``
    rounds; the run replays its own mutation journal at the end and asserts
    bit-identity before returning (``replay_matches_live``).  The body is a
    module-level callable
    (``repro.maintenance.churn:churn_maintenance_metrics``), shipped as a
    ``CallableItem`` so the serial path and ``executor="process"`` execute
    the identical work plan — the returned dictionary contains only
    deterministic values, making the two paths bit-for-bit identical like
    every other entry point.
    """
    scenario = (
        scenario
        if scenario is not None
        else FaultScenarioConfig(join_rate=0.30, leave_rate=0.10, fault_seed=13)
    )
    kwargs = {
        "dataset": dataset,
        "num_nodes": scale.num_nodes,
        "seed": scale.seed,
        "scenario": scenario,
        "rounds": rounds,
        "mcmc_iterations": scale.mcmc_iterations,
        "staleness_bound": staleness_bound,
        "rebuild_bound": rebuild_bound,
        "check_every": check_every,
    }
    plan = WorkPlan()
    key = plan.add(
        CallableItem(
            target="repro.maintenance.churn:churn_maintenance_metrics",
            kwargs=tuple(sorted(kwargs.items())),
            label=f"maintenance/{dataset}",
        )
    )
    resolved = resolve_executor(executor, max_workers)
    if resolved is None:
        resolved = SerialExecutor(store=default_store())
    report = resolved.execute(plan)
    return dict(report.records[key].value)


# --------------------------------------------------------------------------- #
# Fig. 7 — workload CDF with / without tree trimming
# --------------------------------------------------------------------------- #
@_traced_entry
def run_workload_analysis(
    dataset: str,
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Per-device workload arrays for Lumos and Lumos w.o. TT."""
    graph = _prepare(dataset, scale)
    resolved = resolve_executor(executor, max_workers)
    if resolved is not None:
        plan = WorkPlan()
        keys = {
            name: plan.add(
                _lumos_item(
                    dataset, scale, "workload", config,
                    label=f"workload/{dataset}/{name}",
                )
            )
            for name, config in (
                ("lumos", _lumos_config(dataset, scale, "gcn")),
                ("lumos_wo_tt", _lumos_config(dataset, scale, "gcn").without_tree_trimming()),
            )
        }
        report = resolved.execute(plan)
        results = {name: report.records[key].value for name, key in keys.items()}
        results["degrees"] = graph.degrees()
        return results
    store = store if store is not None else default_store()
    trimmed = LumosSystem(graph, _lumos_config(dataset, scale, "gcn"), store=store)
    untrimmed = LumosSystem(
        graph, _lumos_config(dataset, scale, "gcn").without_tree_trimming(), store=store
    )
    return {
        "lumos": trimmed.workload_distribution(),
        "lumos_wo_tt": untrimmed.workload_distribution(),
        "degrees": graph.degrees(),
    }


# --------------------------------------------------------------------------- #
# Fig. 8 — system cost (communication rounds and epoch time)
# --------------------------------------------------------------------------- #
@_traced_entry
def run_system_cost(
    dataset: str,
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-epoch communication rounds and simulated epoch time, with/without TT."""
    variants = (
        ("lumos", _lumos_config(dataset, scale, "gcn")),
        ("lumos_wo_tt", _lumos_config(dataset, scale, "gcn").without_tree_trimming()),
    )
    resolved = resolve_executor(executor, max_workers)
    if resolved is not None:
        plan = WorkPlan()
        keys = {
            name: plan.add(
                _lumos_item(
                    dataset, scale, "system_cost", config,
                    label=f"system_cost/{dataset}/{name}",
                )
            )
            for name, config in variants
        }
        report = resolved.execute(plan)
        return {name: report.records[key].value for name, key in keys.items()}
    store = store if store is not None else default_store()
    graph = _prepare(dataset, scale)
    results: Dict[str, Dict[str, float]] = {}
    for name, config in variants:
        system = LumosSystem(graph, config, store=store)
        trainer = system.trainer()
        entry: Dict[str, float] = {}
        for task in ("supervised", "unsupervised"):
            profile = trainer.communication_profile(task)
            entry[f"{task}_rounds_per_device"] = float(profile["per_device_rounds"].mean())
            entry[f"{task}_epoch_time"] = trainer.simulated_epoch_time(task)
        entry["max_workload"] = float(system.workload_distribution().max())
        results[name] = entry
    return results


# --------------------------------------------------------------------------- #
# Headline claims (abstract / introduction)
# --------------------------------------------------------------------------- #
@_traced_entry
def run_headline_summary(
    dataset: str = "facebook",
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    executor: ExecutorArg = None,
    max_workers: Optional[int] = None,
) -> Dict[str, float]:
    """Reproduce the abstract's three headline numbers on one dataset.

    * accuracy increase of Lumos over the (naive) federated baseline,
    * reduction of inter-device communication rounds from tree trimming,
    * reduction of training time from tree trimming.
    """
    resolved = resolve_executor(executor, max_workers)
    supervised = run_supervised_comparison(
        dataset, backbone=backbone, scale=scale, methods=["lumos", "naive_fedgnn"],
        executor=resolved,
    )
    system_cost = run_system_cost(dataset, scale=scale, executor=resolved)
    accuracy_gain = relative_change(supervised["naive_fedgnn"], supervised["lumos"])
    rounds_saving = -relative_change(
        system_cost["lumos_wo_tt"]["supervised_rounds_per_device"],
        system_cost["lumos"]["supervised_rounds_per_device"],
    )
    time_saving = -relative_change(
        system_cost["lumos_wo_tt"]["supervised_epoch_time"],
        system_cost["lumos"]["supervised_epoch_time"],
    )
    return {
        "lumos_accuracy": supervised["lumos"],
        "naive_fedgnn_accuracy": supervised["naive_fedgnn"],
        "accuracy_gain_percent": accuracy_gain,
        "communication_rounds_saving_percent": rounds_saving,
        "training_time_saving_percent": time_saving,
    }
