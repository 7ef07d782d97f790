"""Experiment runner: one entry point per comparison the paper makes.

Every function takes an :class:`ExperimentScale` so the same code drives the
quick configurations (small synthetic graphs, tens of epochs) and larger
runs.  The returned dictionaries are consumed by :mod:`repro.eval.figures`
and by the figure tests under ``benchmarks/``.

Every experiment is a :class:`~repro.runtime.plan.WorkPlan`: an entry point
describes its independent arms — sweep points, ablation variants, baseline
comparisons — as work items (the experiment bodies live once, in
:mod:`repro.runtime.items`) and runs them one after another on ``store``,
the one artifact store of the plan.  The default is the process-wide
:func:`~repro.engine.default_store`, so stages whose inputs do not change
between arms (tree construction across an epsilon sweep, the whole
pre-training pipeline across a backbone sweep) are computed once and
replayed bit-for-bit afterwards, within and across calls.  Pass
``store=ArtifactStore()`` to isolate a run from that store.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from .. import obs
from ..core import default_config_for
from ..core.config import LumosConfig
from ..engine import ArtifactStore, default_store
from ..faults import FaultScenarioConfig, default_robustness_scenarios
from ..maintenance.churn import churn_maintenance_metrics
from ..runtime import BaselineItem, GraphSpec, LumosItem, WorkItem, WorkPlan
from ..runtime.items import BASELINE_METHODS
from .metrics import relative_change

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


def _run_plan(
    items: Mapping[Hashable, WorkItem], store: Optional[ArtifactStore]
) -> Dict[Hashable, Any]:
    """Run ``items`` (arm name -> work item) as one plan on one store.

    Returns the arms' values under the same names, in the same order.  Arms
    whose content keys collide run once.
    """
    store = default_store() if store is None else store
    plan = WorkPlan(list(items.values()))
    values = {}
    for item in plan.unique_items():
        with obs.span("runtime.item", label=item.label or type(item).__name__):
            values[item.key()] = item.execute(store)["value"]
    return {name: values[key] for name, key in zip(items, plan.requests)}


def _require_training_task(task: str) -> None:
    if task not in BASELINE_METHODS:
        raise ValueError(f"task must be one of {tuple(BASELINE_METHODS)}, got {task!r}")


def _graph_spec(dataset: str, scale: ExperimentScale) -> GraphSpec:
    """The recipe every arm builds its graph from."""
    return GraphSpec(dataset=dataset, seed=scale.seed, num_nodes=scale.num_nodes)


def _lumos_items(
    dataset: str, scale: ExperimentScale, task: str,
    configs: Mapping[Hashable, LumosConfig], label_prefix: str,
) -> Dict[Hashable, LumosItem]:
    """One ``LumosItem`` per named config, labelled ``<label_prefix><name>``."""
    spec = _graph_spec(dataset, scale)
    return {
        name: LumosItem(
            graph_spec=spec, config=config, task=task, split_seed=scale.seed,
            label=f"{label_prefix}{name}",
        )
        for name, config in configs.items()
    }


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
    """One arm per method: Lumos as a ``LumosItem``, baselines as ``BaselineItem``."""
    allowed = ("lumos",) + BASELINE_METHODS[task]
    methods = allowed if methods is None else methods
    if not methods or any(method not in allowed for method in methods):
        raise ValueError(
            f"methods must be a non-empty subset of {allowed} for the {task} "
            f"comparison, got {list(methods)!r}"
        )
    spec = _graph_spec(dataset, scale)
    items: Dict[str, WorkItem] = {}
    for method in methods:
        label = f"{method}/{task}/{dataset}/{backbone}"
        if method == "lumos":
            items[method] = LumosItem(
                graph_spec=spec, config=_lumos_config(dataset, scale, backbone),
                task=task, split_seed=scale.seed, label=label,
            )
        else:
            items[method] = BaselineItem(
                method=method, task=task, graph_spec=spec, backbone=backbone,
                epochs=scale.epochs, seed=scale.seed, split_seed=scale.seed, label=label,
            )
    return _run_plan(items, store)


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
    items = _lumos_items(dataset, scale, task, configs, f"sweep/{task}/{dataset}/eps=")
    return _run_plan(items, store)


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
    items = _lumos_items(dataset, scale, task, configs, f"ablation/{task}/{dataset}/")
    return _run_plan(items, store)


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
    (partition, construction, LDP init, tree batch) through the store; the
    per-arm work-item keys differ by the scenario fingerprint, so cached
    training results never mix scenarios (and two empty scenarios collapse
    to one execution).  A fault-free ``baseline`` arm is added when the grid
    lacks one, and every arm reports its accuracy delta vs that baseline
    (``accuracy_vs_baseline_percent``).
    """
    scenarios = default_robustness_scenarios() if scenarios is None else dict(scenarios)
    if not any(faults.is_empty() for faults in scenarios.values()):
        scenarios = {"baseline": FaultScenarioConfig(), **scenarios}
    base = _lumos_config(dataset, scale, backbone)
    configs = {name: base.with_faults(faults) for name, faults in scenarios.items()}
    items = _lumos_items(dataset, scale, "robustness", configs, f"robustness/{dataset}/")
    results = {name: dict(value) for name, value in _run_plan(items, store).items()}
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
    only deterministic values.  One arm never dedupes, and the run keeps its
    own journal and snapshot store, so this entry point is no work plan and
    takes no ``store``.
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
def _trimming_pair(dataset: str, scale: ExperimentScale, task: str) -> Dict[Hashable, LumosItem]:
    """The Lumos / Lumos w.o. TT arms both system-side figures compare."""
    base = _lumos_config(dataset, scale, "gcn")
    configs = {"lumos": base, "lumos_wo_tt": base.without_tree_trimming()}
    return _lumos_items(dataset, scale, task, configs, f"{task}/{dataset}/")


@_traced_entry
def run_workload_analysis(
    dataset: str,
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
) -> Dict[str, np.ndarray]:
    """Per-device workload arrays for Lumos and Lumos w.o. TT (Fig. 7)."""
    results = _run_plan(_trimming_pair(dataset, scale, "workload"), store)
    results["degrees"] = _graph_spec(dataset, scale).load().degrees()
    return results


@_traced_entry
def run_system_cost(
    dataset: str,
    scale: ExperimentScale = ExperimentScale(),
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-epoch communication rounds and simulated epoch time, with/without TT (Fig. 8)."""
    return _run_plan(_trimming_pair(dataset, scale, "system_cost"), store)


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
    """
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
