"""Tests of the observability layer: spans, metrics, exporters — and above
all the *invisibility contract*.

The contract has three clauses (see ``repro.obs``): instrumentation never
draws from any RNG, nothing observability-related enters fingerprints or the
canonical ledger/accountant state, and a run with the tracer disabled is
bit-for-bit identical to an untraced run — while an *enabled* tracer adds
only the ``obs`` side-channel to worker payloads.  The tests here pin all
three clauses on the serial path and through the process executor, then
check the exporters: the Chrome trace-event JSON must be schema-valid and
carry one named track per worker process.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.core import TreeConstructor, TreeConstructorConfig, default_config_for
from repro.engine import ArtifactStore
from repro.eval.runner import ExperimentScale, run_epsilon_sweep
from repro.federation import FederatedEnvironment
from repro.graph import generate_facebook_like
from repro.runtime import GraphSpec, LumosItem, ProcessExecutor, SerialExecutor

SPEC = GraphSpec(dataset="facebook", seed=0, num_nodes=40)
SCALE = ExperimentScale(num_nodes=40, epochs=3, mcmc_iterations=10, seed=0)
EPSILONS = [0.5, 1.0, 2.0, 3.0, 4.0]


def _config(epsilon=2.0):
    return (
        default_config_for("facebook")
        .with_mcmc_iterations(10)
        .with_epochs(3)
        .with_epsilon(epsilon)
    )


def _sweep_item(epsilon):
    return LumosItem(
        graph_spec=SPEC, config=_config(epsilon), task="supervised",
        split_seed=0, label=f"eps={epsilon}", keep_transcript=True,
    )


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    """Every test starts and ends with the tracer disabled."""
    previous = obs.set_tracer(None)
    try:
        yield
    finally:
        obs.set_tracer(previous)


# --------------------------------------------------------------------------- #
# The invisibility contract
# --------------------------------------------------------------------------- #
class TestInvisibilityContract:
    def test_traced_serial_run_is_bit_identical_plus_obs_side_channel(self):
        untraced = _sweep_item(2.0).execute(ArtifactStore())
        with obs.tracing() as tracer:
            traced = _sweep_item(2.0).execute(ArtifactStore())

        # The payload carries the full determinism surface: final metrics,
        # canonical ledger transcript, accountant snapshot and the RNG end
        # state.  Tracing must change none of it.
        assert "obs" not in untraced
        assert traced == untraced
        # ...and the tracer really was on: spans and metrics were recorded.
        assert tracer.spans
        assert any(
            name.startswith("engine.stage.") for name in tracer.metrics.counters
        )

    def test_traced_process_sweep_matches_untraced_serial(self):
        serial = run_epsilon_sweep(
            "facebook", epsilons=EPSILONS, scale=SCALE,
            executor=SerialExecutor(store=ArtifactStore()),
        )
        with obs.tracing():
            traced = run_epsilon_sweep(
                "facebook", epsilons=EPSILONS, scale=SCALE,
                executor=ProcessExecutor(max_workers=2),
            )
        assert traced == serial

    def test_traced_serial_sweep_spans_every_point_and_matches_untraced(self):
        untraced = run_epsilon_sweep(
            "facebook", epsilons=EPSILONS, scale=SCALE,
            executor=SerialExecutor(store=ArtifactStore()),
        )
        with obs.tracing() as tracer:
            traced = run_epsilon_sweep(
                "facebook", epsilons=EPSILONS, scale=SCALE,
                executor=SerialExecutor(store=ArtifactStore()),
            )
        assert traced == untraced
        training_spans = [
            span for span in tracer.spans
            if span["name"] == "trainer.train_supervised"
        ]
        assert len(training_spans) == len(EPSILONS)

    def test_untraced_process_payloads_carry_no_obs_key(self):
        from repro.runtime import WorkPlan

        plan = WorkPlan()
        key = plan.add(_sweep_item(2.0))
        report = ProcessExecutor(max_workers=1).execute(plan)
        assert report.records[key].obs is None


# --------------------------------------------------------------------------- #
# Cross-process aggregation (the acceptance scenario)
# --------------------------------------------------------------------------- #
class TestMergedRunTrace:
    @pytest.fixture(scope="class")
    def traced_sweep(self):
        with obs.tracing() as tracer:
            results = run_epsilon_sweep(
                "facebook", epsilons=EPSILONS, scale=SCALE,
                executor=ProcessExecutor(max_workers=2),
            )
        return results, obs.RunTrace.from_tracer(tracer)

    def test_worker_snapshots_are_merged(self, traced_sweep):
        _, trace = traced_sweep
        processes = trace.processes()
        assert processes[0] == "main"
        assert any(name.startswith("worker-") for name in processes)

    def test_worker_spans_cover_items_and_stages(self, traced_sweep):
        _, trace = traced_sweep
        worker_spans = [
            span for span in trace.spans()
            if span["process"].startswith("worker-")
        ]
        names = {span["name"] for span in worker_spans}
        assert "runtime.item" in names
        assert any(name.startswith("engine.stage.") for name in names)
        for span in worker_spans:
            assert span["wall"] >= 0.0
            assert span["cpu"] >= 0.0

    def test_merged_metrics_sum_across_processes(self, traced_sweep):
        _, trace = traced_sweep
        counters = trace.merged_metrics()["counters"]
        assert counters["runtime.dispatches"] == float(len(EPSILONS))
        assert counters["crypto.comparisons"] > 0.0

    def test_merge_order_is_plan_request_order(self, traced_sweep):
        """Worker snapshots follow the plan's item order, not completion."""
        _, trace = traced_sweep
        labels = [
            span["attributes"]["label"]
            for span in trace.spans()
            if span["name"] == "runtime.item"
            and span["process"].startswith("worker-")
        ]
        assert labels == [f"sweep/supervised/facebook/eps={e}" for e in EPSILONS]

    def test_chrome_export_has_one_track_per_worker(self, traced_sweep, tmp_path):
        _, trace = traced_sweep
        path = obs.write_chrome_trace(trace, tmp_path / "sweep.json")
        document = json.loads(path.read_text())
        thread_names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event.get("name") == "thread_name"
        }
        assert "main" in thread_names
        assert any(name.startswith("worker-") for name in thread_names)

    def test_summary_table_mentions_stages_and_counters(self, traced_sweep):
        _, trace = traced_sweep
        table = obs.summary_table(trace)
        assert "runtime.item" in table
        assert "crypto.comparisons" in table


# --------------------------------------------------------------------------- #
# Exporter schemas
# --------------------------------------------------------------------------- #
def _small_trace():
    with obs.tracing() as tracer:
        with obs.span("outer", scope="test"):
            with obs.span("inner"):
                obs.add_counter("unit.count", 2.0)
                obs.observe("unit.latency", 0.5)
        obs.set_gauge("unit.level", 3.0)
    return obs.RunTrace.from_tracer(tracer)


class TestExporters:
    def test_chrome_export_is_schema_valid_json(self, tmp_path):
        path = obs.write_chrome_trace(_small_trace(), tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events, "export produced no events"
        for event in events:
            assert event["ph"] in ("M", "X")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["name"], str)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        inner = next(e for e in complete if e["name"] == "inner")
        outer = next(e for e in complete if e["name"] == "outer")
        assert outer["ts"] <= inner["ts"]
        assert outer["dur"] >= inner["dur"]
        assert outer["args"]["scope"] == "test"

    def test_spans_jsonl_round_trips(self, tmp_path):
        path = obs.write_spans_jsonl(_small_trace(), tmp_path / "spans.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert {line["name"] for line in lines} == {"outer", "inner"}
        inner = next(line for line in lines if line["name"] == "inner")
        outer = next(line for line in lines if line["name"] == "outer")
        assert inner["parent"] == outer["id"]
        assert all(line["process"] == "main" for line in lines)

    def test_summary_table_lists_metrics(self):
        table = obs.summary_table(_small_trace())
        assert "unit.count" in table
        assert "unit.latency" in table
        assert "unit.level" in table


# --------------------------------------------------------------------------- #
# Metrics registry semantics
# --------------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_merge_sums_counters_and_histograms(self):
        left = obs.MetricsRegistry()
        left.add_counter("c", 2.0)
        left.observe("h", 1.0)
        left.set_gauge("g", 1.0)
        right = obs.MetricsRegistry()
        right.add_counter("c", 3.0)
        right.observe("h", 5.0)
        right.set_gauge("g", 7.0)

        left.merge(right.snapshot())
        merged = left.snapshot()
        assert merged["counters"]["c"] == 5.0
        assert merged["histograms"]["h"] == {
            "count": 2.0, "sum": 6.0, "min": 1.0, "max": 5.0,
        }
        assert merged["gauges"]["g"] == 7.0  # last write wins

    def test_disabled_helpers_are_no_ops(self):
        obs.add_counter("nothing")
        obs.observe("nothing", 1.0)
        obs.set_gauge("nothing", 1.0)
        with obs.span("nothing") as record:
            record["attributes"]["key"] = "value"  # annotation-style call site
        assert obs.current_tracer() is None


# --------------------------------------------------------------------------- #
# Counters mirror the accountant
# --------------------------------------------------------------------------- #
class TestCryptoCounters:
    def test_crypto_counters_equal_the_accountant_on_a_secure_construction(self):
        """Every path that bumps the accountant bumps the obs counter too —
        the scalar table OTs of ``objective_difference`` included."""
        environment = FederatedEnvironment.from_graph(
            generate_facebook_like(seed=3, num_nodes=60), seed=0
        )
        with obs.tracing() as tracer:
            result = TreeConstructor(
                TreeConstructorConfig(mcmc_iterations=10),
                rng=np.random.default_rng(0),
                secure=True,
            ).construct(environment)
        counters = tracer.metrics.snapshot()["counters"]
        snapshot = result.transcript.snapshot()
        assert set(snapshot) == {"messages", "bits", "ot_invocations", "comparisons"}
        assert {name: counters[f"crypto.{name}"] for name in snapshot} == snapshot


# --------------------------------------------------------------------------- #
# Overhead envelope (slow)
# --------------------------------------------------------------------------- #
@pytest.mark.slow
def test_tracing_overhead_is_bounded():
    """Tracing a 300-device sweep must stay within a generous envelope.

    A factor-of-three bound: instrumentation is one dict append and two
    clock reads per event, so anything past this indicates an accidental
    hot-loop hook, not timing noise.
    """
    import time

    scale = ExperimentScale(num_nodes=300, epochs=3, mcmc_iterations=25, seed=0)

    def run():
        return run_epsilon_sweep(
            "facebook", epsilons=EPSILONS, scale=scale,
            executor=SerialExecutor(store=ArtifactStore()),
        )

    run()  # warm dataset caches so both timings see the same state
    start = time.perf_counter()
    untraced = run()
    untraced_seconds = time.perf_counter() - start

    with obs.tracing():
        start = time.perf_counter()
        traced = run()
        traced_seconds = time.perf_counter() - start

    assert traced == untraced
    assert traced_seconds <= 3.0 * untraced_seconds + 5.0
