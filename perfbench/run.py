"""perfbench entry point.

Three modes:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` — one run of one
  workload in this process; the last line of standard output is one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` with the
  end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
* ``run.py [--seed N] [--runs R]`` — the whole benchmark: per workload ``R``
  untraced child processes (seeds ``N .. N+R-1``) and one traced child, every
  metric printed by name with its unit, a report written to ``--out``.
* ``run.py --compare A.json B.json`` — verdict per (workload, end-to-end
  metric) between two reports.

Exit status is non-zero when a check fails or a comparison reads ``worse``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

_PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The environment every measuring process runs under.  One compute thread:
#: with two BLAS threads on a 2-CPU box the spread of the large runs doubles
#: for no wall-clock gain.  No mmap and no trim in glibc malloc: large arrays
#: are then served from the retained heap, so after the warm-up iteration the
#: timed iterations take no page faults — with the default allocator the
#: memory-heavy workloads are bimodal on this VM (5.3 s or 7.0 s for the same
#: work, depending on whether transparent huge pages were available).
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}

if __name__ == "__main__":
    # The allocator reads its settings at process start and numpy reads the
    # thread counts at import, so re-execute once under the pinned environment.
    # Nothing leaks into a process that merely imports this file.
    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np
import scipy

from perfbench import workloads as registry
from perfbench.spans import SpanRecorder

_IMPORT_SECONDS = time.perf_counter() - _PROCESS_START

#: Input generations per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3


def _cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _forget_peak_rss() -> None:
    """Return freed memory to the system and reset this process's peak RSS.

    Called after set-up, so that ``peak_rss_mb`` is the peak of the workload's
    executions: the tree construction in ``churn_10k``'s set-up peaks higher
    than its body, and under the pinned allocator the heap would never shrink.
    Needs glibc and Linux's ``/proc``; elsewhere the peak includes set-up.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
        Path("/proc/self/clear_refs").write_text("5")  # 5: reset the peak-RSS mark
    except (OSError, AttributeError):
        pass


def calibration_seconds() -> float:
    """A fixed numpy + interpreter loop, for normalising across machines."""
    matrix = np.random.default_rng(0).random((256, 256))
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        product = matrix
        for _ in range(20):
            product = product @ matrix
            product /= np.abs(product).max()
        total = 0
        for value in range(200_000):
            total += value & 7
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def measure(
    workload: registry.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    sizes: Optional[Dict[str, int]] = None,
    import_seconds: float = 0.0,
) -> Dict[str, Any]:
    """Run ``workload`` repeatedly for ``seconds`` and return the result object.

    ``out_dir`` is the only directory written to: the churn journal while a
    body runs, and the span log of a traced run.

    Every iteration gets fresh program objects and a fresh ``ArtifactStore``
    and is timed as a whole; timings are medians over the iterations.  The
    first execution warms the process (allocator heap, lazy imports) and is
    counted as set-up, so ``setup_s`` is imports + input generation + that
    cold execution, and work moved out of the timed iterations shows there.
    A traced run alternates untraced and traced iterations, so the tracing
    overhead is measured inside one process.
    """
    sizes = workload.sizes if sizes is None else sizes
    checks = registry.Checks()
    out_dir.mkdir(parents=True, exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = dict(workload.setup(sizes, seed), out_dir=out_dir)
        setup_times.append(time.perf_counter() - start)
    if sizes is workload.sizes and seed == 0:
        checks.expect("seed-0 inputs match the recorded SHA-256", inputs["digest"] == workload.input_sha256)
    _forget_peak_rss()

    silent, recorder = SpanRecorder(enabled=False), SpanRecorder(enabled=True)
    walls: Dict[bool, List[float]] = {False: [], True: []}
    cpus: List[float] = []
    span_times: List[Dict[str, float]] = []
    coverages: List[float] = []
    repeats: List[tuple] = []
    operations = 0
    outputs = state = None

    def iterate(traced: bool) -> Tuple[float, float]:
        nonlocal outputs, state, operations
        outputs = state = None  # drop the previous iteration before timing this one
        gc.collect()
        run = recorder.next_run() if traced else 0
        state = workload.fresh(inputs)
        cpu_start, start = _cpu_seconds(), time.perf_counter()
        outputs = workload.body(state, recorder if traced else silent)
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu_start
        operations += outputs.operations
        repeats.append((outputs.max_workload, outputs.comm_bytes_per_device, sorted(outputs.counts.items())))
        if traced:
            times = recorder.self_times(run)
            times.update({name: recorder.total(name, run) for name in registry.INCLUSIVE_SPANS})
            span_times.append(times)
            coverages.append(recorder.coverage(run, wall))
        return wall, cpu

    cold_seconds, _ = iterate(False)
    deadline = time.perf_counter() + seconds
    iteration = 0
    # A traced run ends on a traced iteration: both kinds were sampled and the
    # probes below read what the traced body left in ``outputs``.
    while iteration == 0 or time.perf_counter() < deadline or (trace and iteration % 2):
        traced = trace and iteration % 2 == 1
        wall, cpu = iterate(traced)
        walls[traced].append(wall)
        cpus.append(cpu)
        iteration += 1
    # Before the checks: they re-run parts of the program and must not set the peak.
    peak_rss_mb = _peak_rss_mb()

    checks.expect(
        "counts repeat exactly across iterations", all(repeat == repeats[0] for repeat in repeats)
    )
    workload.check(state, outputs, checks)

    if not trace:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "max_workload": outputs.max_workload,
            "comm_bytes_per_device": outputs.comm_bytes_per_device,
            "setup_s": import_seconds + statistics.median(setup_times) + cold_seconds,
        }
        units = {name: unit for name, unit, _, _ in registry.END_TO_END}
    else:
        spans = {
            name: statistics.median(times.get(name, 0.0) for times in span_times)
            for name in set().union(*span_times)
        }
        coverage = statistics.median(coverages)
        checks.expect(f"span coverage {coverage:.4f} >= 0.95", coverage >= 0.95)
        metrics = {name: 0.0 for name, _, _ in registry.PER_LAYER}
        metrics.update(outputs.counts)
        metrics.update(
            {name: spans.get(span, 0.0) * scale for name, (span, scale) in registry.SPAN_METRICS.items()}
        )
        metrics.update(workload.probe(state, outputs, spans))
        metrics.update(
            {
                "perfbench.span_coverage": coverage,
                "perfbench.tracing_overhead_share": statistics.median(walls[True])
                / statistics.median(walls[False])
                - 1.0,
                "perfbench.calibration_s": calibration_seconds(),
            }
        )
        units = {name: unit for name, unit, _ in registry.PER_LAYER}
        recorder.dump_jsonl(out_dir / f"{workload.name}.spans.jsonl")
    undeclared = set(metrics) - set(units)
    if undeclared:
        raise KeyError(f"{workload.name} emitted undeclared metrics {sorted(undeclared)}")

    return {
        "correct": not checks.failures,
        "attempted": operations + checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
        "failures": checks.failures,
        "iterations": 1 + iteration,
    }


# --------------------------------------------------------------------------- #
# Whole-benchmark mode
# --------------------------------------------------------------------------- #
def _child(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} exited {completed.returncode} without a result")
    return json.loads(lines[-1])


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarise(values: Sequence[float], unit: str) -> Dict[str, Any]:
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4) if len(ordered) >= 2 else [ordered[0]] * 3
    middle = statistics.median(ordered)
    return {
        "median": middle,
        # Quartile distance as a share of the median: what a bound is held against.
        "spread": (quartiles[2] - quartiles[0]) / abs(middle) if middle else 0.0,
        "q1": quartiles[0],
        "q3": quartiles[2],
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "unit": unit,
        "values": list(values),
    }


def run_all(seed: int, runs: int, seconds: int, names: Sequence[str], out: Path) -> int:
    started = time.perf_counter()
    report: Dict[str, Any] = {"workloads": {}}
    failed = False
    for name in names:
        untraced = [_child(name, seed + index, seconds, 0) for index in range(runs)]
        traced = _child(name, seed, seconds, 1)
        results = untraced + [traced]
        failed = failed or not all(result["correct"] for result in results)
        end_to_end = {
            metric: summarise([result["metrics"][metric]["value"] for result in untraced], unit)
            for metric, unit, _, _ in registry.END_TO_END
        }
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
        }
        print(f"== {name}")
        for metric, stats in end_to_end.items():
            print(
                f"  {metric:<44} {stats['median']:>16.6g} {stats['unit']:<8}"
                f" [{stats['min']:.6g} .. {stats['max']:.6g}] n={stats['n']} spread={stats['spread']:.2%}"
            )
        for metric, entry in traced["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}")
        entry = report["workloads"][name]
        entry["failed_ops_share"] = entry["failed"] / entry["attempted"]
        print(
            f"  {'failed_ops_share':<44} {entry['failed_ops_share']:>16.6g} ratio   "
            f" ({entry['failed']} failed of {entry['attempted']} operations and checks)"
        )
    report["manifest"] = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "pinned_env": PINNED_ENV,
        "seed": seed,
        "runs": runs,
        "run_seconds": seconds,
        "total_wall_s": time.perf_counter() - started,
        "calibration_s": statistics.median(
            entry["per_layer"]["perfbench.calibration_s"]["value"] for entry in report["workloads"].values()
        ),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report written to {out}")
    return 1 if failed else 0


# --------------------------------------------------------------------------- #
# Comparison mode
# --------------------------------------------------------------------------- #
def verdict(base: Dict[str, Any], change: Dict[str, Any], better: str, bound: float) -> str:
    """``better`` / ``within-bound`` / ``worse`` / ``unresolved`` for one metric.

    Unresolved: the run-to-run spread (quartile distance of either side) is
    wider than the bound and the two ranges overlap, so the medians cannot be
    told apart at this bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    reference = abs(base["median"])
    worsening = sign * (change["median"] - base["median"])
    allowed = bound * reference
    spread = max(base["q3"] - base["q1"], change["q3"] - change["q1"])
    overlap = base["min"] <= change["max"] and change["min"] <= base["max"]
    if spread > allowed and overlap and worsening != 0:
        return "unresolved"
    if worsening > allowed:
        return "worse"
    return "better" if worsening < -allowed else "within-bound"


def compare(base_path: Path, change_path: Path) -> int:
    base = json.loads(base_path.read_text(encoding="utf-8"))["workloads"]
    change = json.loads(change_path.read_text(encoding="utf-8"))["workloads"]
    worse = False
    print(f"{'workload':<22}{'metric':<24}{'base':>14}{'change':>14}{'delta':>9}  {'bound':>6}  verdict")
    for name in base:
        if name not in change:
            print(f"{name:<22}missing from {change_path}")
            worse = True
            continue
        for metric, _, better, bound in registry.END_TO_END:
            left, right = base[name]["end_to_end"][metric], change[name]["end_to_end"][metric]
            result = verdict(left, right, better, bound)
            worse = worse or result == "worse"
            delta = (right["median"] - left["median"]) / left["median"] if left["median"] else 0.0
            print(
                f"{name:<22}{metric:<24}{left['median']:>14.6g}{right['median']:>14.6g}"
                f"{delta:>+9.2%}  {bound:>6.0%}  {result}  (of {left['median']:.6g} {left['unit']})"
            )
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", help="workload name (repeatable in whole-benchmark mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="run one workload in this process")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload (whole-benchmark mode)")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "report.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.trace is None:
        names = args.workload or [workload.name for workload in registry.WORKLOADS]
        return run_all(args.seed, args.runs, seconds, names, args.out)
    if not args.workload or len(args.workload) != 1:
        parser.error("--trace runs exactly one --workload")
    workload = registry.by_name(args.workload[0])
    result = measure(
        workload,
        args.seed,
        seconds,
        bool(args.trace),
        OUT_DIR,
        import_seconds=_IMPORT_SECONDS,
    )
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
