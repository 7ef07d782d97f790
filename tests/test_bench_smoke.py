"""Tier-1 smoke coverage of the perf-benchmark harness.

``benchmarks/bench_engine.py`` is only executed by hand between perf PRs, so
its code would silently rot; the ``--smoke`` mode runs every section at a
tiny scale without touching ``BENCH_engine.json`` or the regression gate,
and this test keeps it in the tier-1 flow.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_bench_engine():
    spec = importlib.util.spec_from_file_location(
        "bench_engine_smoke", REPO_ROOT / "benchmarks" / "bench_engine.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_smoke_mode_runs_all_sections_without_writing(tmp_path):
    bench_engine = _load_bench_engine()
    bench_json = REPO_ROOT / "BENCH_engine.json"
    before = bench_json.read_bytes() if bench_json.exists() else None

    assert bench_engine.main(["--smoke"]) == 0

    after = bench_json.read_bytes() if bench_json.exists() else None
    assert before == after, "--smoke must never rewrite BENCH_engine.json"


def test_tracked_speedups_include_all_perf_sections():
    bench_engine = _load_bench_engine()
    assert set(bench_engine.TRACKED_SPEEDUPS) == {
        "treebatch_assembly",
        "training_epoch",
        "mcmc_balancing",
        "greedy_initialization",
        "secure_construction",
        "secure_transport",
        "epsilon_sweep",
        "parallel_sweep",
        "robustness_sweep",
        "tree_maintenance",
    }


def test_gate_skips_cpu_bound_sections_recorded_on_another_box(tmp_path, capsys):
    """A cpu_count-stamped speedup from a different machine class must be
    skipped by the regression gate, not compared apples-to-oranges."""
    bench_engine = _load_bench_engine()
    scale = {"nodes": 10}
    path = tmp_path / "BENCH_engine.json"
    other_box = (os.cpu_count() or 1) + 7

    previous = {"scale": scale, "parallel_sweep": {"speedup": 50.0, "cpu_count": other_box}}
    payload = {"scale": scale, "parallel_sweep": {"speedup": 0.1, "cpu_count": other_box}}
    path.write_text(json.dumps(previous))
    assert bench_engine.check_trajectory(payload, path) == []
    assert "cpu_count differs" in capsys.readouterr().err

    # One-sided stamps are just as incomparable (e.g. a stale --only merge).
    payload["parallel_sweep"].pop("cpu_count")
    assert bench_engine.check_trajectory(payload, path) == []

    # Control: the same regression measured on the current box still fails.
    previous["parallel_sweep"]["cpu_count"] = os.cpu_count()
    payload["parallel_sweep"]["cpu_count"] = os.cpu_count()
    path.write_text(json.dumps(previous))
    regressions = bench_engine.check_trajectory(payload, path)
    assert len(regressions) == 1 and "parallel_sweep" in regressions[0]

    # Sections that never record a cpu_count keep the plain comparison.
    previous = {"scale": scale, "training_epoch": {"speedup": 50.0}}
    payload = {"scale": scale, "training_epoch": {"speedup": 0.1}}
    path.write_text(json.dumps(previous))
    assert len(bench_engine.check_trajectory(payload, path)) == 1
    capsys.readouterr()


def test_secure_construction_section_is_gate_tracked_and_equivalent(capsys):
    """The regression gate must see the secure_construction speedup."""
    bench_engine = _load_bench_engine()
    assert "secure_construction" in bench_engine.TRACKED_SPEEDUPS

    from repro.graph import load_dataset

    class Args:
        mcmc = 10
        repeat = 1

    graph = load_dataset("facebook", seed=0, num_nodes=30)
    section = bench_engine.bench_secure_construction(graph, Args())
    # The section internally asserts batched == reference (assignments and
    # transcript) before reporting; a finite speedup means both paths ran.
    assert section["devices"] == 30
    assert section["comparisons"] > 0
    assert section["speedup"] > 0
