"""Experiment runner: one entry point per comparison the paper makes.

Every function takes an :class:`ExperimentScale` so the same code drives the
quick configurations (small synthetic graphs, tens of epochs) and larger
runs.  The returned dictionaries are consumed by :mod:`repro.eval.figures`
and by the figure tests under ``benchmarks/``.

Every experiment is a loop over its arms — sweep points, ablation
variants, baseline comparisons.  An entry point loads its graph once and
runs each arm under a ``runner.arm`` span: a Lumos arm is a
:class:`~repro.core.LumosSystem` on ``store`` plus the task body
(:func:`_lumos_value`), a baseline arm one baseline trainer
(:func:`_baseline_value`).  All arms of a call share one store — the
``store`` passed in, or one the call creates and drops when it returns — so
stages whose inputs do not change between arms (tree construction across an
epsilon sweep, the whole pre-training pipeline across a backbone sweep) are
computed once and replayed bit-for-bit afterwards.  Pass the same ``store``
to several calls to share stages across them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from .. import baselines, obs
from ..core import LumosSystem, default_config_for
from ..core.config import LumosConfig
from ..engine import ArtifactStore
from ..faults import FaultScenarioConfig, default_robustness_scenarios
from ..graph import Graph, load_dataset, split_edges, split_nodes
from ..maintenance.churn import churn_maintenance_metrics
from .metrics import relative_change

#: The tasks :func:`_lumos_value` runs on a built system.
LUMOS_TASKS = ("supervised", "unsupervised", "workload", "system_cost", "robustness")

#: The baseline trainers per training task: the methods Fig. 3 (supervised)
#: and Fig. 4 (unsupervised) compare Lumos against.
_BASELINE_TRAINERS = {
    "supervised": {
        "centralized": baselines.train_centralized_supervised,
        "lpgnn": baselines.train_lpgnn_supervised,
        "naive_fedgnn": baselines.train_naive_fedgnn_supervised,
    },
    "unsupervised": {
        "centralized": baselines.train_centralized_unsupervised,
        "naive_fedgnn": baselines.train_naive_fedgnn_unsupervised,
    },
}


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
        """Quick configuration (the ``repro-figures`` default; seconds per figure)."""
        return cls(num_nodes=300, epochs=50, mcmc_iterations=100, seed=0)

    @classmethod
    def medium(cls) -> "ExperimentScale":
        """Configuration closer to the paper's setup (minutes per figure)."""
        return cls(num_nodes=800, epochs=150, mcmc_iterations=300, seed=0)

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Paper-scale run (uses the full synthetic graphs and 300 epochs)."""
        return cls(num_nodes=None, epochs=300, mcmc_iterations=1000, seed=0)


def _require_training_task(task: str) -> None:
    if task not in _BASELINE_TRAINERS:
        raise ValueError(f"task must be one of {tuple(_BASELINE_TRAINERS)}, got {task!r}")


def _load_graph(dataset: str, scale: ExperimentScale) -> Graph:
    """The graph every arm of one experiment runs on."""
    return load_dataset(dataset, seed=scale.seed, num_nodes=scale.num_nodes)


def _lumos_value(system: LumosSystem, task: str, split_seed: int) -> Any:
    """Run ``task`` on a built system; return what the harness consumes.

    ``supervised`` / ``unsupervised`` train and return the test metric,
    ``robustness`` the supervised metrics with the fault counters,
    ``workload`` the per-device workload array after construction, and
    ``system_cost`` the Fig. 8 communication/epoch-time entry.  The system's
    ledger, accountant and RNG are left for the caller to read.
    """
    if task not in LUMOS_TASKS:
        raise ValueError(f"task must be one of {LUMOS_TASKS}, got {task!r}")
    if task == "supervised":
        return system.run_supervised(split_nodes(system.graph, seed=split_seed)).test_accuracy
    if task == "unsupervised":
        return system.run_unsupervised(split_edges(system.graph, seed=split_seed)).test_auc
    if task == "workload":
        return system.workload_distribution()
    trainer = system.trainer()
    if task == "robustness":
        result = system.run_supervised(split_nodes(system.graph, seed=split_seed))
        stats = trainer.fault_stats or {}
        traffic = system.environment.ledger.summary()
        return {
            "test_accuracy": result.test_accuracy,
            "best_val_accuracy": result.best_val_accuracy,
            "rounds_per_device": result.communication_rounds_per_device,
            "mean_epoch_time": stats.get("mean_epoch_time", result.simulated_epoch_time),
            "mean_participation": stats.get("mean_participation", 1.0),
            "offline_device_rounds": stats.get("offline_device_rounds", 0.0),
            "evicted_device_rounds": stats.get("evicted_device_rounds", 0.0),
            "lost_update_rounds": stats.get("lost_update_rounds", 0.0),
            "skipped_updates": stats.get("skipped_updates", 0.0),
            "dropped_messages": traffic.get("dropped_messages", 0.0),
            "dropped_bytes": traffic.get("dropped_bytes", 0.0),
        }
    entry: Dict[str, float] = {}
    for training in ("supervised", "unsupervised"):
        profile = trainer.communication_profile(training)
        entry[f"{training}_rounds_per_device"] = float(profile["per_device_rounds"].mean())
        entry[f"{training}_epoch_time"] = trainer.simulated_epoch_time(training)
    entry["max_workload"] = float(system.workload_distribution().max())
    return entry


def _baseline_value(
    graph: Graph, method: str, task: str, backbone: str, scale: ExperimentScale
) -> float:
    """Train one baseline arm; return its test accuracy or test AUC.

    Baselines train centrally or on their own simulated federation: they
    neither read nor fill the artifact store.
    """
    _require_training_task(task)
    trainers = _BASELINE_TRAINERS[task]
    if method not in trainers:
        raise ValueError(
            f"method must be one of {tuple(trainers)} for task {task!r}, got {method!r}"
        )
    train = functools.partial(
        trainers[method], backbone=backbone, epochs=scale.epochs, seed=scale.seed
    )
    if task == "supervised":
        return train(graph, split_nodes(graph, seed=scale.seed)).test_accuracy
    return train(graph, split_edges(graph, seed=scale.seed)).test_auc


def _run_lumos_arms(
    graph: Graph, scale: ExperimentScale, task: str,
    configs: Mapping[Hashable, LumosConfig], label_prefix: str,
    store: Optional[ArtifactStore],
) -> Dict[Hashable, Any]:
    """One Lumos arm per named config, in order, all on ``store`` (a new
    store when ``None``).

    Each arm runs under a ``runner.arm`` span labelled
    ``<label_prefix><name>``; the values come back under the same names.
    """
    store = store if store is not None else ArtifactStore()
    values = {}
    for name, config in configs.items():
        with obs.span("runner.arm", label=f"{label_prefix}{name}"):
            values[name] = _lumos_value(LumosSystem(graph, config, store=store), task, scale.seed)
    return values


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
# Fig. 3 / Fig. 4 — accuracy comparison against the baselines
# --------------------------------------------------------------------------- #
def _run_comparison(
    dataset: str, backbone: str, scale: ExperimentScale,
    methods: Optional[Sequence[str]], task: str, store: Optional[ArtifactStore],
) -> Dict[str, float]:
    """One arm per method: Lumos on ``store``, each baseline on its own."""
    allowed = ("lumos", *_BASELINE_TRAINERS[task])
    methods = allowed if methods is None else methods
    if not methods or any(method not in allowed for method in methods):
        raise ValueError(
            f"methods must be a non-empty subset of {allowed} for the {task} "
            f"comparison, got {list(methods)!r}"
        )
    graph = _load_graph(dataset, scale)
    results: Dict[str, float] = {}
    for method in methods:
        with obs.span("runner.arm", label=f"{method}/{task}/{dataset}/{backbone}"):
            if method == "lumos":
                system = LumosSystem(graph, _lumos_config(dataset, scale, backbone), store=store)
                results[method] = _lumos_value(system, task, scale.seed)
            else:
                results[method] = _baseline_value(graph, method, task, backbone, scale)
    return results


@_traced_entry
def run_supervised_comparison(
    dataset: str,
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    methods: Optional[List[str]] = None,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, float]:
    """Test accuracy of Lumos and the baselines on one dataset + backbone."""
    return _run_comparison(dataset, backbone, scale, methods, "supervised", store)


@_traced_entry
def run_unsupervised_comparison(
    dataset: str,
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    methods: Optional[List[str]] = None,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, float]:
    """Test ROC-AUC of Lumos, centralized and naive FedGNN."""
    return _run_comparison(dataset, backbone, scale, methods, "unsupervised", store)


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
) -> Dict[float, float]:
    """Lumos accuracy / AUC as a function of the privacy budget ``epsilon``.

    Epsilon only affects the LDP exchange onwards: the partition and the tree
    construction are computed for the first point and replayed from the
    artifact store for every other point.
    """
    _require_training_task(task)
    epsilons = [0.5, 1.0, 2.0, 4.0] if epsilons is None else epsilons
    if not epsilons:
        raise ValueError("epsilons must name at least one privacy budget")
    configs = {
        epsilon: _lumos_config(dataset, scale, backbone, epsilon=epsilon)
        for epsilon in epsilons
    }
    return _run_lumos_arms(
        _load_graph(dataset, scale), scale, task, configs, f"sweep/{task}/{dataset}/eps=", store
    )


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
) -> Dict[str, float]:
    """Lumos vs Lumos w.o. virtual nodes vs Lumos w.o. tree trimming.

    The three variants share the node-level partition (and, where the
    constructor configuration matches, the construction) via the artifact
    store.
    """
    _require_training_task(task)
    base = _lumos_config(dataset, scale, backbone)
    configs = {
        "lumos": base,
        "lumos_wo_vn": base.without_virtual_nodes(),
        "lumos_wo_tt": base.without_tree_trimming(),
    }
    return _run_lumos_arms(
        _load_graph(dataset, scale), scale, task, configs, f"ablation/{task}/{dataset}/", store
    )


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
) -> Dict[str, Dict[str, float]]:
    """Supervised Lumos metrics per fault scenario, relative to a baseline.

    Each scenario is one ablation arm: the same dataset/config trained under
    a different :class:`~repro.faults.FaultScenarioConfig`.  Scenarios only
    engage at training time, so every arm shares the full pipeline prefix
    (partition, construction, LDP init, tree batch) through the store, and
    training is never cached, so results never mix scenarios (two empty
    scenarios return identical metrics).  A fault-free ``baseline`` arm is
    added when the grid lacks one, and every arm reports its accuracy delta vs that baseline
    (``accuracy_vs_baseline_percent``).
    """
    scenarios = default_robustness_scenarios() if scenarios is None else dict(scenarios)
    if not any(faults.is_empty() for faults in scenarios.values()):
        scenarios = {"baseline": FaultScenarioConfig(), **scenarios}
    base = _lumos_config(dataset, scale, backbone)
    configs = {name: base.with_faults(faults) for name, faults in scenarios.items()}
    results = _run_lumos_arms(
        _load_graph(dataset, scale), scale, "robustness", configs, f"robustness/{dataset}/", store
    )
    baseline_name = next(name for name, faults in scenarios.items() if faults.is_empty())
    baseline_accuracy = results[baseline_name]["test_accuracy"]
    for entry in results.values():
        entry["accuracy_vs_baseline_percent"] = relative_change(
            baseline_accuracy, entry["test_accuracy"]
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
) -> Dict[str, float]:
    """Maintain a constructed tree through a churn schedule; report metrics.

    The fault plan's joins/leaves become journalled delta mutations of a
    :class:`~repro.maintenance.MaintainedTree`, with a
    :class:`~repro.maintenance.StalenessMonitor` check every ``check_every``
    rounds; the run replays its own mutation journal at the end and asserts
    bit-identity before returning (``replay_matches_live``).  The body is
    :func:`repro.maintenance.churn.churn_maintenance_metrics`; it returns
    only deterministic values.  The run keeps its own journal and snapshot
    store, so this entry point takes no ``store``.
    """
    scenario = (
        scenario
        if scenario is not None
        else FaultScenarioConfig(join_rate=0.30, leave_rate=0.10, fault_seed=13)
    )
    return churn_maintenance_metrics(
        dataset=dataset,
        num_nodes=scale.num_nodes,
        seed=scale.seed,
        scenario=scenario,
        rounds=rounds,
        mcmc_iterations=scale.mcmc_iterations,
        staleness_bound=staleness_bound,
        rebuild_bound=rebuild_bound,
        check_every=check_every,
    )


# --------------------------------------------------------------------------- #
# Fig. 7 / Fig. 8 — the system side, with / without tree trimming
# --------------------------------------------------------------------------- #
def _run_trimming_pair(
    graph: Graph, dataset: str, scale: ExperimentScale, task: str,
    store: Optional[ArtifactStore],
) -> Dict[Hashable, Any]:
    """The Lumos / Lumos w.o. TT arms both system-side figures compare."""
    base = _lumos_config(dataset, scale, "gcn")
    configs = {"lumos": base, "lumos_wo_tt": base.without_tree_trimming()}
    return _run_lumos_arms(graph, scale, task, configs, f"{task}/{dataset}/", store)


@_traced_entry
def run_workload_analysis(
    dataset: str,
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
) -> Dict[str, np.ndarray]:
    """Per-device workload arrays for Lumos and Lumos w.o. TT (Fig. 7)."""
    graph = _load_graph(dataset, scale)
    results = _run_trimming_pair(graph, dataset, scale, "workload", store)
    results["degrees"] = graph.degrees()
    return results


@_traced_entry
def run_system_cost(
    dataset: str,
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-epoch communication rounds and simulated epoch time, with/without TT (Fig. 8)."""
    return _run_trimming_pair(_load_graph(dataset, scale), dataset, scale, "system_cost", store)


# --------------------------------------------------------------------------- #
# Headline claims (abstract / introduction)
# --------------------------------------------------------------------------- #
@_traced_entry
def run_headline_summary(
    dataset: str = "facebook",
    backbone: str = "gcn",
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
) -> Dict[str, float]:
    """Reproduce the abstract's three headline numbers on one dataset.

    * accuracy increase of Lumos over the (naive) federated baseline,
    * reduction of inter-device communication rounds from tree trimming,
    * reduction of training time from tree trimming.

    Both calls run on one store (a new one when ``store`` is ``None``).
    """
    store = store if store is not None else ArtifactStore()
    supervised = run_supervised_comparison(
        dataset, backbone=backbone, scale=scale, methods=["lumos", "naive_fedgnn"],
        store=store,
    )
    system_cost = run_system_cost(dataset, scale=scale, store=store)
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
