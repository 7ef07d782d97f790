"""Tier-1 tests of the benchmark itself (tiny sizes, a few seconds in total)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import graphgen, run, workloads
from perfbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _record_tree(recorder: SpanRecorder, clock: FakeClock) -> None:
    """outer [0, 10] with children a [1, 4] and b [5, 7]; b has child c [5, 6]."""
    with recorder.span("outer"):
        clock.now = 1.0
        with recorder.span("a"):
            clock.now = 4.0
        clock.now = 5.0
        with recorder.span("b"):
            with recorder.span("c"):
                clock.now = 6.0
            clock.now = 7.0
        clock.now = 10.0


def test_spans_nesting_and_parent_links():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    _record_tree(recorder, clock)
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["outer"].parent is None
    assert by_name["a"].parent == by_name["outer"].id
    assert by_name["c"].parent == by_name["b"].id
    assert {span.run for span in recorder.spans} == {0}
    assert by_name["b"].duration == pytest.approx(2.0)


def test_spans_self_time_and_coverage():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    run_id = recorder.next_run()
    _record_tree(recorder, clock)
    assert recorder.self_times(run_id) == pytest.approx({"outer": 5.0, "a": 3.0, "b": 1.0, "c": 1.0})
    # Only the top-level span counts towards coverage: 10 of 12.5 seconds.
    assert recorder.coverage(run_id, 12.5) == pytest.approx(0.8)
    assert recorder.total("a", run_id) == pytest.approx(3.0)
    assert recorder.of_run(run_id + 1) == []


def test_spans_disabled_records_nothing_and_dump(tmp_path):
    silent = SpanRecorder(enabled=False)
    with silent.span("anything"):
        pass
    assert silent.spans == []
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    _record_tree(recorder, clock)
    recorder.dump_jsonl(tmp_path / "out" / "spans.jsonl")
    lines = (tmp_path / "out" / "spans.jsonl").read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == ["outer", "a", "b", "c"]


# --------------------------------------------------------------------------- #
# graphgen
# --------------------------------------------------------------------------- #
def test_generator_is_byte_identical_for_equal_seeds():
    first = graphgen.generate_graph(300, 7)
    second = graphgen.generate_graph(300, 7)
    other = graphgen.generate_graph(300, 8)
    assert graphgen.input_digest(*first) == graphgen.input_digest(*second)
    assert graphgen.input_digest(*first) != graphgen.input_digest(*other)
    split = graphgen.edge_split_arrays(300, first[0], 7)
    again = graphgen.edge_split_arrays(300, first[0], 7)
    assert graphgen.input_digest(*split.values()) == graphgen.input_digest(*again.values())
    degrees = np.bincount(first[0].ravel(), minlength=300)
    script = graphgen.mutation_script(degrees, 50, 7)
    assert np.array_equal(script, graphgen.mutation_script(degrees, 50, 7))
    assert len(set(script.tolist())) == 50 and int(np.argmax(degrees)) in script


def test_generated_graph_is_simple_heavy_tailed_and_homophilous():
    edges, features, labels = graphgen.generate_graph(10_000, 0)
    assert (edges[:, 0] < edges[:, 1]).all()
    assert len(np.unique(edges, axis=0)) == len(edges)
    degree = np.bincount(edges.ravel(), minlength=10_000)
    assert degree.min() >= 1
    assert 14.5 < degree.mean() < 16.0
    assert degree.max() > 20 * degree.mean()  # heavy tail
    assert (labels[edges[:, 0]] == labels[edges[:, 1]]).mean() > 0.75  # homophily
    assert set(np.unique(features)) == {0.0, 1.0}


def test_edge_split_negatives_are_non_edges():
    edges, _, _ = graphgen.generate_graph(300, 3)
    split = graphgen.edge_split_arrays(300, edges, 3)
    existing = {tuple(edge) for edge in edges.tolist()}
    negatives = np.concatenate([split["val_negatives"], split["test_negatives"]])
    assert not existing & {tuple(pair) for pair in negatives.tolist()}
    assert len(np.unique(negatives, axis=0)) == len(negatives)
    assert sum(len(split[k]) for k in ("train_edges", "val_edges", "test_edges")) == len(edges)


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", workloads.WORKLOADS, ids=lambda w: w.name)
def test_workload_emits_every_declared_metric_and_passes_its_checks(workload, tmp_path):
    assert workload.tiny["devices"] <= 200
    untraced = run.measure(workload, seed=3, seconds=0, trace=False, out_dir=tmp_path, sizes=workload.tiny)
    traced = run.measure(workload, seed=3, seconds=0, trace=True, out_dir=tmp_path, sizes=workload.tiny)
    for result in (untraced, traced):
        assert result["failures"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(untraced["metrics"]) == [name for name, _, _, _ in workloads.END_TO_END]
    assert list(traced["metrics"]) == [name for name, _, _ in workloads.PER_LAYER]
    for name, entry in {**untraced["metrics"], **traced["metrics"]}.items():
        assert NAME.fullmatch(name)
        assert np.isfinite(entry["value"])
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())
    assert traced["metrics"]["perfbench.span_coverage"]["value"] >= 0.95
    assert (untraced["iterations"], traced["iterations"]) == (2, 3)  # warm-up + untraced [+ traced]
    # Nothing is left behind but the traced run's span log.
    assert [path.name for path in tmp_path.iterdir()] == [f"{workload.name}.spans.jsonl"]


def test_benchmark_json_matches_the_registry():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(declared) == ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    assert declared["paths"] == ["perfbench"]
    assert declared["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS]
    assert declared["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in workloads.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better in workloads.PER_LAYER
    ]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert set(workloads.SPAN_METRICS) <= {name for name, _, _ in workloads.PER_LAYER}


# --------------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------------- #
def _stats(values):
    return run.summarise(values, "s")


def test_verdicts():
    base = _stats([10.0, 10.1, 9.9])
    assert run.verdict(base, _stats([10.2, 10.3, 10.1]), "lower", 0.10) == "within-bound"
    assert run.verdict(base, _stats([8.0, 8.1, 7.9]), "lower", 0.10) == "better"
    assert run.verdict(base, _stats([12.0, 12.1, 11.9]), "lower", 0.10) == "worse"
    assert run.verdict(base, _stats([8.0, 8.1, 7.9]), "higher", 0.10) == "worse"
    # Spread wider than the bound and overlapping ranges: cannot tell.
    assert run.verdict(_stats([8.0, 10.0, 12.0]), _stats([9.0, 11.5, 13.0]), "lower", 0.10) == "unresolved"
    # Counts that repeat exactly are within bound even at bound 0.
    assert run.verdict(_stats([21, 21, 21]), _stats([21, 21, 21]), "lower", 0.0) == "within-bound"


def test_compare_exit_status(tmp_path, capsys):
    def report(wall):
        entry = {name: _stats([1.0, 1.0, 1.0]) for name, _, _, _ in workloads.END_TO_END}
        entry["wall_s"] = _stats(wall)
        return {"workloads": {"w": {"end_to_end": entry}}}

    base, slow = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(report([1.0, 1.01, 0.99])))
    slow.write_text(json.dumps(report([1.5, 1.51, 1.49])))
    assert run.compare(base, base) == 0
    assert run.compare(base, slow) == 1
    assert "worse" in capsys.readouterr().out
