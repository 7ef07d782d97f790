"""Per-figure reproduction entry points.

Each ``figureN`` function regenerates the series behind the corresponding
figure of the paper's evaluation section and returns them as a dictionary;
it also prints an ASCII table so results can be read directly from a
terminal or from the benchmark output.

Run from the command line::

    python -m repro.eval.figures fig3 --scale small
    python -m repro.eval.figures all --scale medium
"""

from __future__ import annotations

import argparse
import contextlib
import json
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..engine import ArtifactStore
from . import runner
from .reporting import (
    cdf_series,
    format_table,
    relative_savings_percent,
    summarize_comparison,
)

DATASETS = ("facebook", "lastfm")


def _scale_from_name(name: str) -> runner.ExperimentScale:
    factory = {
        "small": runner.ExperimentScale.small,
        "medium": runner.ExperimentScale.medium,
        "paper": runner.ExperimentScale.paper,
    }
    try:
        return factory[name]()
    except KeyError as error:
        raise KeyError(f"unknown scale '{name}'; use small, medium or paper") from error


# --------------------------------------------------------------------------- #
# Fig. 3 — supervised label classification accuracy
# --------------------------------------------------------------------------- #
def figure3(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = DATASETS,
    backbones: tuple = ("gcn", "gat"),
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Label classification accuracy: Lumos vs Centralized vs LPGNN vs Naive FedGNN."""
    results: Dict[str, Dict[str, float]] = {}
    rows: List[list] = []
    for dataset in datasets:
        for backbone in backbones:
            key = f"{dataset}/{backbone}"
            results[key] = runner.run_supervised_comparison(
                dataset, backbone, scale, store=store
            )
            rows.append(
                [
                    dataset,
                    backbone.upper(),
                    results[key].get("lumos", float("nan")),
                    results[key].get("centralized", float("nan")),
                    results[key].get("lpgnn", float("nan")),
                    results[key].get("naive_fedgnn", float("nan")),
                ]
            )
    if verbose:
        print("\n[Fig. 3] Label classification accuracy")
        print(
            format_table(
                ["dataset", "backbone", "Lumos", "Centralized", "LPGNN", "Naive FedGNN"], rows
            )
        )
    return results


# --------------------------------------------------------------------------- #
# Fig. 4 — unsupervised link prediction ROC-AUC
# --------------------------------------------------------------------------- #
def figure4(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = DATASETS,
    backbones: tuple = ("gcn", "gat"),
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Link prediction ROC-AUC: Lumos vs Centralized vs Naive FedGNN."""
    results: Dict[str, Dict[str, float]] = {}
    rows: List[list] = []
    for dataset in datasets:
        for backbone in backbones:
            key = f"{dataset}/{backbone}"
            results[key] = runner.run_unsupervised_comparison(
                dataset, backbone, scale, store=store
            )
            rows.append(
                [
                    dataset,
                    backbone.upper(),
                    results[key].get("lumos", float("nan")),
                    results[key].get("centralized", float("nan")),
                    results[key].get("naive_fedgnn", float("nan")),
                ]
            )
    if verbose:
        print("\n[Fig. 4] Link prediction ROC-AUC")
        print(format_table(["dataset", "backbone", "Lumos", "Centralized", "Naive FedGNN"], rows))
    return results


# --------------------------------------------------------------------------- #
# Fig. 5 — sensitivity to the privacy budget epsilon
# --------------------------------------------------------------------------- #
def figure5(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = DATASETS,
    epsilons: tuple = (0.5, 1.0, 2.0, 4.0),
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, Dict[float, float]]]:
    """Effect of epsilon on Lumos accuracy (supervised) and AUC (unsupervised)."""
    results: Dict[str, Dict[str, Dict[float, float]]] = {"supervised": {}, "unsupervised": {}}
    for task in ("supervised", "unsupervised"):
        rows = []
        for dataset in datasets:
            sweep = runner.run_epsilon_sweep(
                dataset, task=task, epsilons=list(epsilons), scale=scale,
                store=store,
            )
            results[task][dataset] = sweep
            rows.append([dataset] + [sweep[e] for e in epsilons])
        if verbose:
            metric = "accuracy" if task == "supervised" else "AUC"
            print(f"\n[Fig. 5] Lumos {task} {metric} vs epsilon")
            print(format_table(["dataset"] + [f"eps={e}" for e in epsilons], rows))
    return results


# --------------------------------------------------------------------------- #
# Fig. 6 — ablation: virtual nodes and tree trimming (accuracy side)
# --------------------------------------------------------------------------- #
def figure6(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = DATASETS,
    backbones: tuple = ("gcn", "gat"),
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Accuracy contribution of virtual nodes and tree trimming."""
    results: Dict[str, Dict[str, Dict[str, float]]] = {"supervised": {}, "unsupervised": {}}
    for task in ("supervised", "unsupervised"):
        rows = []
        for dataset in datasets:
            for backbone in backbones:
                key = f"{dataset}/{backbone}"
                ablation = runner.run_ablation(
                    dataset, task=task, backbone=backbone, scale=scale,
                    store=store,
                )
                results[task][key] = ablation
                rows.append(
                    [
                        dataset,
                        backbone.upper(),
                        ablation["lumos"],
                        ablation["lumos_wo_vn"],
                        ablation["lumos_wo_tt"],
                    ]
                )
        if verbose:
            metric = "accuracy" if task == "supervised" else "AUC"
            print(f"\n[Fig. 6] Ablation ({task}, {metric})")
            print(
                format_table(
                    ["dataset", "backbone", "Lumos", "Lumos w.o. VN", "Lumos w.o. TT"], rows
                )
            )
    return results


# --------------------------------------------------------------------------- #
# Fig. 7 — CDF of per-device workload with / without tree trimming
# --------------------------------------------------------------------------- #
def figure7(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = DATASETS,
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, object]]:
    """Workload distribution with and without tree trimming."""
    results: Dict[str, Dict[str, object]] = {}
    for dataset in datasets:
        analysis = runner.run_workload_analysis(dataset, scale=scale, store=store)
        trimmed = analysis["lumos"]
        untrimmed = analysis["lumos_wo_tt"]
        results[dataset] = {
            "max_with_trimming": float(trimmed.max()),
            "max_without_trimming": float(untrimmed.max()),
            "mean_with_trimming": float(trimmed.mean()),
            "mean_without_trimming": float(untrimmed.mean()),
            "cdf_with_trimming": cdf_series(trimmed),
            "cdf_without_trimming": cdf_series(untrimmed),
            "workloads_with_trimming": trimmed,
            "workloads_without_trimming": untrimmed,
        }
        if verbose:
            print(f"\n[Fig. 7] Workload CDF — {dataset}")
            rows = [
                ["max workload", float(trimmed.max()), float(untrimmed.max())],
                ["mean workload", float(trimmed.mean()), float(untrimmed.mean())],
                ["p95 workload", float(np.percentile(trimmed, 95)), float(np.percentile(untrimmed, 95))],
            ]
            print(format_table(["statistic", "Lumos", "Lumos w.o. TT"], rows))
    return results


# --------------------------------------------------------------------------- #
# Fig. 8 — system cost: communication rounds and training time per epoch
# --------------------------------------------------------------------------- #
def figure8(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = DATASETS,
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-epoch communication rounds and simulated training time, with/without TT."""
    results: Dict[str, Dict[str, float]] = {}
    rows = []
    for dataset in datasets:
        cost = runner.run_system_cost(dataset, scale=scale, store=store)
        for task in ("supervised", "unsupervised"):
            with_tt = cost["lumos"][f"{task}_rounds_per_device"]
            without_tt = cost["lumos_wo_tt"][f"{task}_rounds_per_device"]
            time_with = cost["lumos"][f"{task}_epoch_time"]
            time_without = cost["lumos_wo_tt"][f"{task}_epoch_time"]
            key = f"{dataset}/{task}"
            results[key] = {
                "rounds_with_trimming": with_tt,
                "rounds_without_trimming": without_tt,
                "rounds_saving_percent": relative_savings_percent(without_tt, with_tt),
                "epoch_time_with_trimming": time_with,
                "epoch_time_without_trimming": time_without,
                "time_saving_percent": relative_savings_percent(time_without, time_with),
            }
            rows.append(
                [
                    dataset,
                    task,
                    with_tt,
                    without_tt,
                    results[key]["rounds_saving_percent"],
                    time_with,
                    time_without,
                    results[key]["time_saving_percent"],
                ]
            )
    if verbose:
        print("\n[Fig. 8] System cost of tree trimming")
        print(
            format_table(
                [
                    "dataset",
                    "task",
                    "rounds (TT)",
                    "rounds (no TT)",
                    "rounds saved %",
                    "epoch time (TT)",
                    "epoch time (no TT)",
                    "time saved %",
                ],
                rows,
                float_format="{:.2f}",
            )
        )
    return results


# --------------------------------------------------------------------------- #
# Robustness — accuracy and system cost under unreliable federations
# --------------------------------------------------------------------------- #
def figure_robustness(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = ("facebook",),
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Lumos under fault scenarios: accuracy, participation and epoch time.

    Not a figure of the paper (its evaluation assumes full availability) —
    this is the robustness extension's figure family: every scenario of
    :func:`repro.faults.default_robustness_scenarios` as one arm, reported
    against the fault-free baseline.
    """
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset in datasets:
        sweep = runner.run_robustness_sweep(dataset, scale=scale, store=store)
        results[dataset] = sweep
        if verbose:
            print(f"\n[Robustness] Lumos under unreliable federations — {dataset}")
            # The fault_summary columns (skipped updates, evicted straggler
            # device-rounds, dropped bytes) surface the graceful-degradation
            # accounting in the table, not just the raw result dictionaries.
            rows = [
                [
                    name,
                    entry["test_accuracy"],
                    entry["accuracy_vs_baseline_percent"],
                    entry["mean_participation"],
                    entry["mean_epoch_time"],
                    entry["skipped_updates"],
                    entry["evicted_device_rounds"],
                    entry["dropped_messages"],
                    entry["dropped_bytes"],
                ]
                for name, entry in sweep.items()
            ]
            print(
                format_table(
                    [
                        "scenario",
                        "accuracy",
                        "vs baseline %",
                        "participation",
                        "epoch time",
                        "skipped upd",
                        "evicted",
                        "dropped msgs",
                        "dropped bytes",
                    ],
                    rows,
                    float_format="{:.3f}",
                )
            )
    return results


# --------------------------------------------------------------------------- #
# Tree maintenance — churn-driven delta operations vs staleness bounds
# --------------------------------------------------------------------------- #
def figure_maintenance(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    datasets: tuple = ("facebook",),
    rounds: int = 24,
    verbose: bool = True,
) -> Dict[str, Dict[str, float]]:
    """Self-healing tree maintenance under churn (robustness family).

    One churn-maintenance run per dataset: journalled joins/leaves, periodic
    staleness checks against a shadow reconstruction, and the inline
    replay-equals-live assertion.  The table shows how far the delta-
    maintained tree drifted and what the degradation policy did about it.
    """
    results: Dict[str, Dict[str, float]] = {}
    rows = []
    for dataset in datasets:
        metrics = runner.run_churn_maintenance(dataset, rounds=rounds, scale=scale)
        results[dataset] = metrics
        rows.append(
            [
                dataset,
                metrics["mutations"],
                metrics["joins"],
                metrics["leaves"],
                metrics["final_objective"],
                metrics["max_staleness"],
                metrics["rebalances"],
                metrics["rebuilds"],
                metrics["replay_matches_live"],
            ]
        )
    if verbose:
        print("\n[Maintenance] Self-healing trees under churn")
        print(
            format_table(
                [
                    "dataset",
                    "mutations",
                    "joins",
                    "leaves",
                    "objective",
                    "max staleness",
                    "rebalances",
                    "rebuilds",
                    "replay ok",
                ],
                rows,
                float_format="{:.3f}",
            )
        )
    return results


# --------------------------------------------------------------------------- #
# Headline claims (abstract)
# --------------------------------------------------------------------------- #
def headline_summary(
    scale: runner.ExperimentScale = runner.ExperimentScale(),
    dataset: str = "facebook",
    verbose: bool = True,
    store: Optional[ArtifactStore] = None,
) -> Dict[str, float]:
    """Accuracy gain vs the federated baseline and the tree-trimming savings."""
    summary = runner.run_headline_summary(dataset, scale=scale, store=store)
    if verbose:
        print("\n[Headline] Abstract claims (paper: +39.48% acc, -35.16% rounds, -17.74% time)")
        print(summarize_comparison(
            {"lumos": summary["lumos_accuracy"], "naive_fedgnn": summary["naive_fedgnn_accuracy"]},
            reference_key="naive_fedgnn",
        ))
        print(
            f"communication rounds saved: {summary['communication_rounds_saving_percent']:.1f}% | "
            f"training time saved: {summary['training_time_saving_percent']:.1f}%"
        )
    return summary


FIGURES = {
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "robustness": figure_robustness,
    "maintenance": figure_maintenance,
    "headline": headline_summary,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Command line entry point: regenerate one figure or all of them."""
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures as text tables")
    parser.add_argument("figure", choices=sorted(FIGURES) + ["all"], help="which figure to run")
    parser.add_argument("--scale", default="small", choices=["small", "medium", "paper"])
    parser.add_argument("--json", dest="as_json", action="store_true", help="dump results as JSON")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record spans and metrics across the whole "
                             "invocation and write a Chrome trace-event JSON "
                             "loadable in Perfetto")
    args = parser.parse_args(argv)

    scale = _scale_from_name(args.scale)
    selected = sorted(FIGURES) if args.figure == "all" else [args.figure]
    collected = {}
    # One store per invocation, shared by every figure's Lumos arms (the
    # churn run of "maintenance" keeps its own stores and takes none).
    store = ArtifactStore()
    tracer = obs.Tracer() if args.trace else None
    with obs.tracing(tracer) if tracer else contextlib.nullcontext():
        for name in selected:
            shared = {} if name == "maintenance" else {"store": store}
            collected[name] = FIGURES[name](scale=scale, **shared)
    if args.as_json:
        print(json.dumps(_to_jsonable(collected), indent=2))
    if tracer is not None:
        trace = obs.RunTrace.from_tracer(tracer)
        path = obs.write_chrome_trace(trace, args.trace)
        print(f"\ntrace written to {path} (load in https://ui.perfetto.dev)")
        print(obs.summary_table(trace))
    return 0


def _to_jsonable(value):
    """Recursively convert numpy containers into JSON-serialisable types."""
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


if __name__ == "__main__":
    raise SystemExit(main())
