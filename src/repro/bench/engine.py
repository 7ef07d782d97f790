"""Micro-benchmark of the staged execution engine.

Times the hot paths the engine PRs target and writes the results to
``BENCH_engine.json`` at the repository root, so future PRs have a perf
trajectory to regress against (and this script *enforces* it: a >20% drop of
any previously recorded speedup fails the run):

* **TreeBatch assembly** — vectorised block assembly vs the generic per-node
  builder;
* **one training epoch** — the fast backend (cached transposes, CSR segment
  reductions, fused layers, folded propagation) vs the unfused reference
  autograd graph (final metrics, ledger totals and RNG states asserted
  identical, per-epoch losses to rounding);
* **MCMC balancing** — the incremental array-backed kernel (delta workload
  updates, maintained candidate set, columnar transcript) vs a faithful
  emulation of the pre-PR from-scratch kernel;
* **greedy initialization** — the batched secure-comparison kernel (one
  vectorised comparison block, one columnar ledger event) vs the per-edge
  reference protocol loop;
* **secure cold construction** — the batched vectorized-OT kernels (greedy
  with executed table-OT blocks + the incremental balancer's batched secure
  Alg. 3 path) vs the per-comparison reference protocol loops, asserted
  bit-for-bit equivalent before timing;
* **a 5-point epsilon sweep** — the engine path (shared artifact store,
  shared LDP draws, epsilon-free tree-batch key, fast backend) vs an
  emulation of the pre-refactor "seed" path (reference kernels, no artifact
  reuse, generic batch assembly, per-epoch communication-profile
  recomputation);
* **tree maintenance** — steady-state journalled delta updates (remove +
  reinsert cycles, write-ahead journal with fsync) on a maintained tree at
  10^4 devices vs one from-scratch reconstruction, with the crash-safety
  contract asserted inline: a forked child is killed mid-journal-append and
  the recovered run's state digest must match an uninterrupted run's;
* **the parallel sweep scheduler** — the same 5-point sweep through
  ``repro.runtime``'s process pool at 1 vs ``--workers`` workers (and vs the
  serial executor), with the merged metrics asserted identical across all
  three paths.  Wall-clock parallel speedup requires actual CPUs: the
  recorded ``cpu_count`` qualifies the numbers (on a single-core runner the
  section chiefly tracks scheduler overhead).

Run with::

    PYTHONPATH=src python benchmarks/bench_engine.py [--nodes 300]
        [--epochs 50] [--mcmc 1000] [--repeat 2] [--workers 4] [--smoke]
        [--only section[,section...]] [--trace trace.json]

Every section additionally records ``observed_wall_seconds``,
``observed_cpu_seconds`` and ``observed_peak_rss_bytes`` — informational
resource observations excluded from the regression gate (which reads only
``speedup``).  ``--trace PATH`` wraps the run in the observability tracer
and writes a Chrome trace-event JSON (one track per worker process;
loadable in https://ui.perfetto.dev).

(or, once installed, ``repro-bench`` — which writes ``BENCH_engine.json``
to the current directory unless ``--output`` says otherwise).

The default scale uses the paper's Facebook MCMC budget (1,000 balancing
iterations, as in ``default_config_for("facebook")``) on a 300-device
synthetic graph with 50 training epochs per sweep point.  ``--smoke`` runs
every section at a tiny scale and skips the JSON rewrite and the regression
gate — the tier-1 suite invokes it so the bench code cannot rot between
perf PRs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro import obs
from repro.core import (
    LumosSystem,
    MCMCBalancer,
    TreeBasedGNNTrainer,
    TreeBatch,
    default_config_for,
    greedy_initialization,
)
from repro.core.mcmc import _charge_analytic_comparisons
from repro.engine import ArtifactStore
from repro.federation import FederatedEnvironment
from repro.federation.events import SERVER_ID, MessageKind
from repro.graph import load_dataset, split_nodes
from repro.nn.backend import use_backend

EPSILONS = (0.5, 1.0, 2.0, 3.0, 4.0)

#: Sections of BENCH_engine.json whose ``speedup`` is a recorded trajectory:
#: regressing any of them by more than REGRESSION_TOLERANCE fails the run.
TRACKED_SPEEDUPS = (
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
)
REGRESSION_TOLERANCE = 0.20


def _peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process so far, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; platforms
    without the ``resource`` module report nothing.
    """
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def _observed(name: str, section_fn, *section_args) -> dict:
    """Run one bench section, annotating informational resource observations.

    ``observed_*`` fields record the section's wall time, CPU time and the
    process peak RSS after it ran.  They are context for humans reading
    ``BENCH_engine.json`` — the regression gate reads only ``speedup`` (and
    ``cpu_count``), so these never participate in the >20% check.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    with obs.span(f"bench.{name}"):
        result = section_fn(*section_args)
    result["observed_wall_seconds"] = time.perf_counter() - wall_start
    result["observed_cpu_seconds"] = time.process_time() - cpu_start
    peak_rss = _peak_rss_bytes()
    if peak_rss is not None:
        result["observed_peak_rss_bytes"] = peak_rss
    return result


class _SeedScheduleTrainer(TreeBasedGNNTrainer):
    """Trainer emulating the seed's per-epoch schedule.

    The pre-refactor trainer recomputed the communication profile and tree
    sizes inside every epoch's ledger charge; dropping the caches before each
    charge reproduces that cost, so the baseline timing is a faithful stand-in
    for the pre-engine implementation.
    """

    def _charge_epoch(self, task: str) -> None:
        self._profile_cache.clear()
        self._epoch_charge_cache.clear()
        self._tree_sizes = None
        super()._charge_epoch(task)


def _pre_pr_balance(environment, initial, iterations, rng, bit_width=24):
    """Faithful emulation of the pre-PR MCMC kernel (the seed implementation).

    Every iteration re-derives the full Alg. 3 state from scratch — a fresh
    workload array, a vectorised scan over all directed edges, per-winner
    announcement messages through ``Server.select_maximum`` — and builds each
    proposal as a deep copy (``Assignment.transfer``).  This is what
    ``MCMCBalancer`` did before the incremental kernel and is the baseline
    the recorded ``mcmc_balancing`` speedup is measured against.
    """
    from repro.crypto.oblivious_transfer import TranscriptAccountant

    accountant = TranscriptAccountant()

    def find_max(assignment):
        workloads = assignment.workloads()
        workload_array = np.zeros(environment.num_devices, dtype=np.int64)
        for vertex, value in workloads.items():
            workload_array[vertex] = value
        sources, destinations = environment.directed_edges()
        neighbor_max = np.zeros(environment.num_devices, dtype=np.int64)
        if sources.size:
            np.maximum.at(neighbor_max, sources, workload_array[destinations])
        candidates = np.where(workload_array >= neighbor_max)[0].tolist()
        environment.server._candidates.extend(int(c) for c in candidates)
        environment.ledger.send(
            SERVER_ID, SERVER_ID, MessageKind.SERVER_COORDINATION,
            environment.num_devices, "alg3-candidate-announcements",
        )
        if not candidates:
            candidates = [environment.device_ids()[0]]
        candidate_workloads = [workloads[c] for c in candidates]
        pairwise = len(candidates) * max(len(candidates) - 1, 0)
        maximum_value = max(candidate_workloads)
        winners = [c for c, w in zip(candidates, candidate_workloads) if w == maximum_value]
        _charge_analytic_comparisons(accountant, int(sources.size) + pairwise)
        environment.ledger.send(
            SERVER_ID, SERVER_ID, MessageKind.SECURE_COMPARISON,
            (int(sources.size) + pairwise) * 8, f"alg3-comparisons:{int(sources.size) + pairwise}",
        )
        chosen = environment.server.select_maximum(winners)
        environment.server.reset_candidates()
        return int(chosen)

    current = initial.copy()
    history = [current.objective()]
    accepted = 0
    for _ in range(iterations):
        heaviest = find_max(current)
        source_neighbors = sorted(current.selected.get(heaviest, set()))
        if not source_neighbors:
            history.append(current.objective())
            continue
        step_limit = max(1, int(round(math.log(len(source_neighbors)))) or 1)
        step = min(int(rng.integers(1, step_limit + 1)), len(source_neighbors))
        targets = [int(v) for v in np.atleast_1d(
            rng.choice(source_neighbors, size=step, replace=False))]
        proposal = current.transfer(heaviest, targets)
        for target in targets:
            environment.exchange(
                heaviest, target, MessageKind.SERVER_COORDINATION, 8,
                description="mcmc-transition-proposal",
            )
        heaviest_after = find_max(proposal)
        difference = current.objective() - proposal.objective()
        _charge_analytic_comparisons(accountant, 1, bit_width=bit_width)
        environment.exchange(
            heaviest, heaviest_after, MessageKind.SECURE_COMPARISON, bit_width // 8,
            description="mcmc-objective-difference",
        )
        if rng.random() < min(1.0, math.exp(min(difference, 50))):
            current = proposal
            accepted += 1
            for target in targets:
                environment.exchange(
                    heaviest, target, MessageKind.SERVER_COORDINATION, 8,
                    description="mcmc-accept-notification",
                )
        history.append(current.objective())
        environment.next_round()
    environment.apply_assignment(current.as_lists())
    return current, history, accepted


def bench_mcmc_balancing(graph, args) -> dict:
    """Time the incremental balancing kernel vs the pre-PR from-scratch one."""
    iterations = args.mcmc

    def setup():
        environment = FederatedEnvironment.from_graph(
            graph.normalized_features(0.0, 1.0), seed=0
        )
        initial = greedy_initialization(environment, rng=np.random.default_rng(0))
        return environment, initial

    def run_incremental() -> float:
        environment, initial = setup()
        balancer = MCMCBalancer(
            environment, iterations=iterations,
            rng=np.random.default_rng(7), kernel="incremental",
        )
        start = time.perf_counter()
        result = balancer.run(initial)
        elapsed = time.perf_counter() - start
        run_incremental.final_objective = result.final_objective
        return elapsed

    def run_pre_pr() -> float:
        environment, initial = setup()
        start = time.perf_counter()
        current, history, _ = _pre_pr_balance(
            environment, initial, iterations, np.random.default_rng(7)
        )
        elapsed = time.perf_counter() - start
        run_pre_pr.final_objective = history[-1]
        return elapsed

    fast = _best(run_incremental, args.repeat + 1)
    slow = _best(run_pre_pr, args.repeat + 1)
    if run_incremental.final_objective != run_pre_pr.final_objective:
        raise AssertionError(
            "incremental kernel diverged from the pre-PR kernel: "
            f"{run_incremental.final_objective} != {run_pre_pr.final_objective}"
        )
    return {
        "iterations": iterations,
        "devices": graph.num_nodes,
        "incremental_seconds": fast,
        "pre_pr_seconds": slow,
        "speedup": slow / fast if fast else float("nan"),
        "final_objective": run_incremental.final_objective,
    }


def bench_greedy_initialization(graph, args) -> dict:
    """Time the batched greedy kernel vs the per-edge reference loop."""
    from repro.crypto.oblivious_transfer import TranscriptAccountant

    normalized = graph.normalized_features(0.0, 1.0)
    outcomes = {}

    def run(kernel):
        def fn() -> float:
            environment = FederatedEnvironment.from_graph(normalized, seed=0)
            accountant = TranscriptAccountant()
            start = time.perf_counter()
            assignment = greedy_initialization(
                environment, accountant=accountant,
                rng=np.random.default_rng(0), kernel=kernel,
            )
            elapsed = time.perf_counter() - start
            outcomes[kernel] = (assignment.objective(), accountant.snapshot())
            return elapsed

        return fn

    fast = _best(run("batched"), args.repeat + 1)
    slow = _best(run("reference"), args.repeat + 1)
    if outcomes["batched"] != outcomes["reference"]:
        raise AssertionError(
            "batched greedy kernel diverged from the reference loop: "
            f"{outcomes['batched']} != {outcomes['reference']}"
        )
    return {
        "devices": graph.num_nodes,
        "comparisons": outcomes["batched"][1]["comparisons"],
        "batched_seconds": fast,
        "reference_seconds": slow,
        "speedup": slow / fast if fast else float("nan"),
        "objective": outcomes["batched"][0],
    }


def bench_secure_construction(graph, args) -> dict:
    """Time secure cold construction: batched vectorized-OT kernels vs loops.

    Secure mode is the scenario the paper evaluates — every degree and
    workload comparison runs the (simulated) CrypTFlow2 millionaires'
    protocol.  The batched kernels execute the same protocol as one numpy
    block per phase (vectorised table OTs in greedy, the incremental
    balancer's batched Alg. 3 path); the reference path is the per-comparison
    python loop.  Both are asserted bit-for-bit equivalent here (assignments
    and transcript counters) before the timing is recorded.  The MCMC budget
    is capped: the reference loop's per-iteration protocol cost would make
    the paper's 1,000-iteration budget take minutes per repetition without
    changing the ratio.
    """
    from repro.core import TreeConstructor, TreeConstructorConfig

    normalized = graph.normalized_features(0.0, 1.0)
    iterations = min(args.mcmc, 30)
    outcomes = {}

    def run(secure_kernel):
        def fn() -> float:
            environment = FederatedEnvironment.from_graph(normalized, seed=0)
            constructor = TreeConstructor(
                TreeConstructorConfig(
                    mcmc_iterations=iterations, secure_kernel=secure_kernel
                ),
                rng=np.random.default_rng(0),
                secure=True,
            )
            start = time.perf_counter()
            result = constructor.construct(environment)
            elapsed = time.perf_counter() - start
            outcomes[secure_kernel] = (
                result.assignment.as_lists(),
                result.transcript.snapshot(),
            )
            return elapsed

        return fn

    fast = _best(run("batched"), args.repeat)
    slow = _best(run("reference"), args.repeat)
    if outcomes["batched"] != outcomes["reference"]:
        raise AssertionError(
            "batched secure construction diverged from the reference loops: "
            f"{outcomes['batched'][1]} != {outcomes['reference'][1]}"
        )
    return {
        "devices": graph.num_nodes,
        "mcmc_iterations": iterations,
        "comparisons": outcomes["batched"][1]["comparisons"],
        "batched_seconds": fast,
        "reference_seconds": slow,
        "speedup": slow / fast if fast else float("nan"),
    }


def bench_secure_transport(graph, args) -> dict:
    """Measured two-party execution: one bulk session vs chunked round-trips.

    Runs a comparison batch through :class:`repro.crypto.RemoteParty` — the
    parties in separate processes over a real
    :class:`~repro.runtime.channel.PartyChannel` — and records the bytes
    that actually crossed the wire next to the analytic
    :func:`~repro.crypto.secure_compare.comparison_cost` total (the driver
    itself raises if the protocol frames diverge from the model, so a
    recorded section is also a passed contract check).  The tracked speedup
    is *bulk vs chunked*: the same comparisons split over many small
    sessions pay per-session process spawn and handshake once per chunk,
    which is exactly the amortisation the OT-extension-style pad
    precomputation and batched framing exist to buy.  Before timing, the
    bulk outcome is asserted bit-for-bit equivalent to the in-process
    ``execute=True`` kernel (results, accountant counters and log, RNG
    stream state).
    """
    from repro.crypto import RemoteParty, SecureComparator, TranscriptAccountant

    bit_width = 32
    count = max(32, graph.num_nodes)
    chunks = 8
    operand_rng = np.random.default_rng(7)
    left = operand_rng.integers(0, 1 << bit_width, size=count, dtype=np.uint64)
    right = operand_rng.integers(0, 1 << bit_width, size=count, dtype=np.uint64)

    # Equivalence gate: the wire path must be indistinguishable from the
    # in-process simulation in every recorded observable.
    rng_local, rng_remote = np.random.default_rng(11), np.random.default_rng(11)
    acc_local, acc_remote = TranscriptAccountant(), TranscriptAccountant()
    local = SecureComparator(
        bit_width=bit_width, accountant=acc_local, rng=rng_local
    ).compare_batch(left, right, execute=True)
    driver = RemoteParty(bit_width=bit_width, accountant=acc_remote, rng=rng_remote)
    remote = driver.compare_batch(left, right, session_key="bench-equivalence")
    if (
        not np.array_equal(local.left_ge_right, remote.left_ge_right)
        or acc_local.snapshot() != acc_remote.snapshot()
        or acc_local._log != acc_remote._log
        or rng_local.bit_generator.state != rng_remote.bit_generator.state
    ):
        raise AssertionError(
            "two-party execution diverged from the in-process simulation: "
            f"{acc_local.snapshot()} != {acc_remote.snapshot()}"
        )
    report = remote.report

    def bulk() -> float:
        session_driver = RemoteParty(bit_width=bit_width)
        start = time.perf_counter()
        session_driver.compare_batch(left, right, session_key="bench-bulk")
        return time.perf_counter() - start

    def chunked() -> float:
        session_driver = RemoteParty(bit_width=bit_width)
        bounds = np.linspace(0, count, chunks + 1, dtype=int)
        start = time.perf_counter()
        for index in range(chunks):
            low, high = int(bounds[index]), int(bounds[index + 1])
            if high > low:
                session_driver.compare_batch(
                    left[low:high], right[low:high],
                    session_key=f"bench-chunk-{index}",
                )
        return time.perf_counter() - start

    bulk_seconds = _best(bulk, args.repeat)
    chunked_seconds = _best(chunked, args.repeat)
    return {
        "comparisons": count,
        "bit_width": bit_width,
        "chunks": chunks,
        "cpu_count": os.cpu_count(),
        "bulk_seconds": bulk_seconds,
        "chunked_seconds": chunked_seconds,
        "speedup": chunked_seconds / bulk_seconds if bulk_seconds else float("nan"),
        "protocol_payload_bytes": report.protocol_payload_bytes,
        "analytic_payload_bytes": report.analytic_payload_bytes,
        "wire_bytes": report.wire_bytes,
        "frames": report.frames,
    }


def _config(args, epsilon: float = 2.0):
    return (
        default_config_for("facebook")
        .with_mcmc_iterations(args.mcmc)
        .with_epochs(args.epochs)
        .with_epsilon(epsilon)
    )


def _best(fn, repeat: int) -> float:
    return min(fn() for _ in range(repeat))


def bench_treebatch(graph, args) -> dict:
    """Time union-graph assembly: vectorised vs generic per-node path."""
    system = LumosSystem(graph, _config(args), store=ArtifactStore())
    construction = system.construct_trees()
    initialization = system.initialize_embeddings()
    environment = system.environment
    dim = graph.num_features

    def vectorized() -> float:
        start = time.perf_counter()
        TreeBatch._build_vectorized(environment, construction, initialization, dim)
        return time.perf_counter() - start

    def generic() -> float:
        start = time.perf_counter()
        TreeBatch._build_generic(environment, construction, initialization, dim)
        return time.perf_counter() - start

    fast = _best(vectorized, args.repeat + 1)
    slow = _best(generic, args.repeat + 1)
    return {
        "vectorized_seconds": fast,
        "generic_seconds": slow,
        "speedup": slow / fast if fast else float("nan"),
    }


def bench_epoch(graph, split, args) -> dict:
    """Time one steady-state supervised training epoch on each backend.

    The production path (``numpy``: one fused node per layer with closed-form
    adjoints + the folded ``P Â`` operator) against the oracle (``reference``:
    the composite autograd graph).  The two build different graphs, so
    per-epoch losses agree only to rounding; the final metrics, ledger totals
    and RNG states must match exactly — asserted on each backend's first run.

    Measured as the marginal cost ``(t(E epochs) - t(1 epoch)) / (E - 1)`` so
    one-time setup (model init, constant propagation, prepared and folded
    matrices) does not pollute the per-epoch number.
    """
    epochs = max(args.epochs, 10)
    config = _config(args)
    results = {"devices": graph.num_nodes, "epochs": epochs}
    outcomes, losses = {}, {}
    for backend in ("numpy", "reference"):
        with use_backend(backend):
            system = LumosSystem(graph, config, store=ArtifactStore())
            trainer = system.trainer()

            def run(num_epochs: int) -> float:
                start = time.perf_counter()
                trainer.train_supervised(graph.labels, split, epochs=num_epochs)
                return time.perf_counter() - start

            # The first run on the fresh system is the parity run; it also
            # warms the caches (prepared + folded matrices, profiles).
            _, history = trainer.train_supervised(graph.labels, split, epochs=epochs)
            outcomes[backend] = {
                "test_accuracy": history.test_accuracy,
                "best_val_accuracy": history.best_val_accuracy,
                "train_accuracy": tuple(history.train_accuracy),
                "val_accuracy": tuple(history.val_accuracy),
                "ledger": tuple(sorted(
                    system.environment.ledger.summary(
                        system.environment.num_devices
                    ).items()
                )),
                "rng_state": repr(system.rng.bit_generator.state),
            }
            losses[backend] = list(history.losses)
            # The tracked speedup is a ratio of two marginal costs, so it is
            # twice as sensitive to scheduling noise as a single timing —
            # take the min over two extra repeats to stabilise it.
            long = _best(lambda: run(epochs), args.repeat + 2)
            short = _best(lambda: run(1), args.repeat + 2)
            results[f"{backend}_seconds"] = max(long - short, 0.0) / (epochs - 1)
    if outcomes["numpy"] != outcomes["reference"]:
        raise AssertionError(
            "fused training diverged from the reference path: "
            f"{outcomes['numpy']} != {outcomes['reference']}"
        )
    if not np.allclose(losses["numpy"], losses["reference"], rtol=1e-9, atol=1e-12):
        raise AssertionError(
            "fused losses diverged from the reference path beyond rounding"
        )
    results["speedup"] = (
        results["reference_seconds"] / results["numpy_seconds"]
        if results["numpy_seconds"] else float("nan")
    )
    results["test_accuracy"] = outcomes["numpy"]["test_accuracy"]
    return results


def _seed_construct(environment, config, rng):
    """Pre-refactor tree construction: greedy + the from-scratch MCMC kernel."""
    from repro.core.constructor import TreeConstructionResult
    from repro.core.tree import build_tree
    from repro.crypto.oblivious_transfer import TranscriptAccountant

    transcript = TranscriptAccountant()
    greedy = greedy_initialization(
        environment,
        accountant=transcript,
        bit_width=config.constructor.degree_comparison_bits,
        rng=rng,
        kernel="reference",  # the pre-refactor implementation was the per-edge loop
    )
    assignment, history, _ = _pre_pr_balance(
        environment, greedy, config.constructor.mcmc_iterations, rng,
        bit_width=config.constructor.workload_comparison_bits,
    )
    environment.apply_assignment(assignment.as_lists())
    local_graphs = {}
    for device_id in environment.device_ids():
        selected = sorted(assignment.selected.get(device_id, set()))
        local_graphs[device_id] = build_tree(device_id, selected)
        environment.charge_compute(
            device_id, cost=float(len(selected)), description="tree-construction"
        )
    return TreeConstructionResult(
        assignment=assignment,
        local_graphs=local_graphs,
        greedy_assignment=greedy,
        transcript=transcript,
        canonical_layout=False,  # route TreeBatch to the generic builder
    )


def _sweep_seed_path(graph, split, args) -> tuple:
    """Emulate the pre-refactor path: from-scratch balancing kernel (with its
    per-winner announcement ledger), reference compute kernels, no artifact
    reuse, generic batch assembly, per-epoch profile recomputation."""
    from repro.core import LDPEmbeddingInitializer
    from repro.crypto.ldp import FeatureBounds

    normalized = graph.normalized_features(0.0, 1.0)
    pipeline_seconds = 0.0
    start = time.perf_counter()
    with use_backend("reference"):
        for epsilon in EPSILONS:
            pipeline_start = time.perf_counter()
            config = _config(args, epsilon)
            rng = np.random.default_rng(config.seed)
            environment = FederatedEnvironment.from_graph(normalized, seed=config.seed)
            construction = _seed_construct(environment, config, rng)
            initialization = LDPEmbeddingInitializer(
                epsilon=epsilon, bounds=FeatureBounds(0.0, 1.0), rng=rng
            ).run(environment, construction.assignment)
            batch = TreeBatch._build_generic(
                environment, construction, initialization, graph.num_features
            )
            pipeline_seconds += time.perf_counter() - pipeline_start
            trainer = _SeedScheduleTrainer(
                environment, construction, initialization,
                config.trainer, rng=rng, batch=batch,
            )
            trainer.train_supervised(normalized.labels, split)
    return time.perf_counter() - start, pipeline_seconds


def _sweep_engine(graph, split, args):
    store = ArtifactStore()
    pipeline_seconds = 0.0
    systems = []
    start = time.perf_counter()
    for epsilon in EPSILONS:
        pipeline_start = time.perf_counter()
        system = LumosSystem(graph, _config(args, epsilon), store=store)
        system.tree_batch()  # partition -> construction -> draws -> ldp -> batch
        pipeline_seconds += time.perf_counter() - pipeline_start
        systems.append(system)
    # Same call the runner's serial path makes per sweep point.
    for system in systems:
        system.run_supervised(split)
    return time.perf_counter() - start, pipeline_seconds, store


def bench_epsilon_sweep(graph, split, args) -> dict:
    # Interleave the two measurements so CPU-frequency drift during the run
    # biases neither path; report best-of for each.  ``pipeline`` isolates
    # the phases the engine controls (construction, LDP exchange, batch
    # assembly); end-to-end additionally shares the per-point training cost,
    # which no sweep reuse can remove.
    seed_seconds = seed_pipeline = None
    best = best_pipeline = None
    store = None
    for _ in range(args.repeat):
        seed_elapsed, seed_pipeline_elapsed = _sweep_seed_path(graph, split, args)
        if seed_seconds is None or seed_elapsed < seed_seconds:
            seed_seconds, seed_pipeline = seed_elapsed, seed_pipeline_elapsed
        engine_elapsed, engine_pipeline_elapsed, run_store = _sweep_engine(
            graph, split, args
        )
        if best is None or engine_elapsed < best:
            best, best_pipeline, store = (
                engine_elapsed, engine_pipeline_elapsed, run_store
            )
    summary = store.summary()
    return {
        "points": len(EPSILONS),
        "epsilons": list(EPSILONS),
        "seed_path_seconds": seed_seconds,
        "engine_seconds": best,
        "speedup": seed_seconds / best,
        "seed_pipeline_seconds": seed_pipeline,
        "engine_pipeline_seconds": best_pipeline,
        "pipeline_speedup": seed_pipeline / best_pipeline,
        # How training-bound the engine path still is after the overhaul
        # (the pre-overhaul sweep spent ~85% of its time training).
        "engine_training_seconds": best - best_pipeline,
        "engine_training_share": (best - best_pipeline) / best if best else 0.0,
        "construction_runs": summary["construction"]["misses"],
        "construction_hits": summary["construction"]["hits"],
        "ldp_draws_hits": summary["ldp_draws"]["hits"],
        "tree_batch_hits": summary["tree_batch"]["hits"],
        "stage_stats": summary,
        "store_stats": store.stats(),
    }


def bench_parallel_sweep(graph, args) -> dict:
    """Time the 5-point sweep through the process-pool scheduler.

    Three executions of the *same* work plan: the runner's serial loop, the
    process executor with one worker, and with ``--workers`` workers.  The
    merged metrics must be bit-for-bit identical across all three (asserted
    here — this is the runtime's determinism contract under load); the
    tracked ``speedup`` is 1-worker vs N-workers wall clock, i.e. what the
    scheduler gains from fan-out once its fixed costs are paid.
    """
    from repro.eval.runner import ExperimentScale, run_epsilon_sweep
    from repro.runtime import ProcessExecutor

    scale = ExperimentScale(
        num_nodes=args.nodes, epochs=args.epochs, mcmc_iterations=args.mcmc, seed=0
    )
    epsilons = list(EPSILONS)
    outcomes = {}

    def run(label, executor_factory):
        def fn() -> float:
            executor = executor_factory()
            start = time.perf_counter()
            outcomes[label] = run_epsilon_sweep(
                "facebook",
                epsilons=epsilons,
                scale=scale,
                store=ArtifactStore() if executor is None else None,
                executor=executor,
            )
            return time.perf_counter() - start

        return fn

    serial = _best(run("serial", lambda: None), args.repeat)
    one = _best(run("pool_1", lambda: ProcessExecutor(max_workers=1)), args.repeat)
    if args.workers > 1:
        many = _best(
            run("pool_n", lambda: ProcessExecutor(max_workers=args.workers)),
            args.repeat,
        )
    else:
        # 1 vs 1 would only record timing jitter around 1.0x into the gate.
        many, outcomes["pool_n"] = one, outcomes["pool_1"]
    if not (outcomes["serial"] == outcomes["pool_1"] == outcomes["pool_n"]):
        raise AssertionError(
            f"parallel sweep diverged from the serial path: {outcomes}"
        )
    return {
        "points": len(epsilons),
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial,
        "workers1_seconds": one,
        "workers_n_seconds": many,
        "speedup": one / many if many else float("nan"),
        "vs_serial": serial / many if many else float("nan"),
    }


def bench_robustness_sweep(graph, split, args) -> dict:
    """Overhead of the fault-injection training path vs the fault-free one.

    Two ``LumosItem`` executions against one warm store: the default config
    and a hostile scenario combining dropout, churn, stragglers with a round
    deadline, and message loss.  The scenario leaves every stage key
    untouched, so both share the pipeline prefix and the timings isolate the
    training loop — the tracked ``speedup`` is fault-free over faulted wall
    clock (~1.0x; the gate trips if the fault path gets >20% slower).

    Two contracts are asserted inline: an explicitly-empty scenario (even
    with a different fault seed) is byte-for-byte the *same work item* as the
    default config, and the hostile run is deterministic across repeats.
    """
    from repro.faults import FaultScenarioConfig
    from repro.runtime import GraphSpec, LumosItem

    spec = GraphSpec(dataset="facebook", seed=0, num_nodes=graph.num_nodes)
    base = _config(args)
    hostile = FaultScenarioConfig(
        dropout_rate=0.15,
        join_rate=0.30,
        leave_rate=0.10,
        straggler_rate=0.20,
        straggler_multiplier=4.0,
        round_deadline=2.5,
        message_loss_rate=0.05,
        fault_seed=16,
    )
    baseline_item = LumosItem(graph_spec=spec, config=base, task="robustness")
    faulted_item = LumosItem(
        graph_spec=spec, config=base.with_faults(hostile), task="robustness"
    )
    empty_item = LumosItem(
        graph_spec=spec,
        config=base.with_faults(FaultScenarioConfig(fault_seed=99)),
        task="robustness",
    )
    if empty_item.key() != baseline_item.key():
        raise AssertionError("an empty fault scenario changed the work-item key")

    store = ArtifactStore()
    baseline_payload = baseline_item.execute(store)  # warms the shared prefix
    faulted_payload = faulted_item.execute(store)
    if empty_item.execute(store) != baseline_payload:
        raise AssertionError(
            "empty fault scenario diverged from the fault-free path"
        )

    def timed(work_item, expected, label):
        def fn() -> float:
            start = time.perf_counter()
            payload = work_item.execute(store)
            elapsed = time.perf_counter() - start
            if payload != expected:
                raise AssertionError(f"{label} robustness run is nondeterministic")
            return elapsed

        return fn

    fault_free = _best(
        timed(baseline_item, baseline_payload, "fault-free"), args.repeat
    )
    faulted = _best(timed(faulted_item, faulted_payload, "faulted"), args.repeat)
    value = faulted_payload["value"]
    return {
        "devices": graph.num_nodes,
        "epochs": args.epochs,
        "fault_free_seconds": fault_free,
        "faulted_seconds": faulted,
        "speedup": fault_free / faulted if faulted else float("nan"),
        "mean_participation": value["mean_participation"],
        "offline_device_rounds": value["offline_device_rounds"],
        "evicted_device_rounds": value["evicted_device_rounds"],
        "lost_update_rounds": value["lost_update_rounds"],
        "skipped_updates": value["skipped_updates"],
        "dropped_messages": value["dropped_messages"],
        "accuracy_delta": value["test_accuracy"]
        - baseline_payload["value"]["test_accuracy"],
    }


def bench_tree_maintenance(graph, args) -> dict:
    """Steady-state journalled delta maintenance vs from-scratch rebuild.

    Three measurements plus one asserted contract:

    * **steady-state update rate** — timed remove+insert cycles on a
      journalled ``MaintainedTree`` at 10^4 devices (the graph is rebuilt at
      that scale unless ``--smoke``); every cycle is two write-ahead-
      journalled mutations including the fsync, i.e. the real maintenance
      path, not an in-memory approximation.  The tracked ``speedup`` is one
      full reconstruction's wall clock over the per-delta cost — how many
      journalled updates one rebuild buys.
    * **rebuild wall clock** — ``fresh_assignment`` over the maintained
      adjacency at the maintenance layer's rebuild MCMC budget.
    * **staleness** — maintained vs rebuilt objective after the churn batch,
      the quantity the ``StalenessMonitor`` bounds in production.
    * **kill-replay contract** — a forked child runs a churn schedule with a
      ``ChaosConfig`` that ``os._exit``s it mid-journal-append (torn tail on
      disk, exit code 86); the parent recovers the journal, resumes the
      schedule at the recovered ``seq``, and the final state digest must
      equal an uninterrupted run's bit for bit.  Asserted at a small scale
      on every bench run so the crash-safety story cannot rot between PRs.
    """
    import multiprocessing
    import tempfile

    from repro.engine.store import DiskSpillStore
    from repro.faults import FaultScenarioConfig
    from repro.faults.plan import FaultPlan
    from repro.maintenance import (
        MaintainedTree,
        MaintenanceConfig,
        MutationJournal,
        compile_churn_schedule,
        first_crash_seq,
        fresh_assignment,
        resume_schedule,
        run_schedule,
    )
    from repro.maintenance.churn import _constructed_tree
    from repro.runtime.worker import ChaosConfig

    smoke = bool(getattr(args, "smoke", False))
    devices = graph.num_nodes if smoke else max(args.nodes, 10_000)
    construction_iterations = min(args.mcmc, 200)
    lists, ego, num_devices = _constructed_tree(
        "facebook", devices, 0, construction_iterations
    )
    config = MaintenanceConfig(seed=0)
    cycles = 20 if smoke else 200  # one cycle = remove + reinsert (2 mutations)

    with tempfile.TemporaryDirectory(prefix="repro-bench-maintenance-") as tmp:
        journal = MutationJournal.create(Path(tmp) / "journal.lmj")
        snapshots = DiskSpillStore(
            Path(tmp) / "snapshots", max_bytes=256 * 1024 * 1024
        )
        tree = MaintainedTree.from_construction(
            lists, ego, config, journal=journal, snapshots=snapshots
        )
        rng = np.random.default_rng(0)
        candidates = [d for d in tree.present() if ego[d]]
        sample = [
            int(d)
            for d in rng.choice(
                candidates, size=min(cycles, len(candidates)), replace=False
            )
        ]
        mutations = 2 * len(sample)

        def churn_batch() -> float:
            # Each cycle leaves membership unchanged, so repeats time the
            # same workload on a live (not pristine) tree — the steady state.
            start = time.perf_counter()
            for device in sample:
                tree.remove_device(device)
                tree.insert_device(device, ego[device])
            return time.perf_counter() - start

        def rebuild() -> float:
            start = time.perf_counter()
            rebuild.assignment, _ = fresh_assignment(
                tree.neighbors, config.rebuild_mcmc_iterations, seed=0
            )
            return time.perf_counter() - start

        update_seconds = _best(churn_batch, args.repeat)
        rebuild_seconds = _best(rebuild, args.repeat)
        maintained_objective = tree.objective()
        rebuilt_objective = max(
            (len(v) for v in rebuild.assignment.values()), default=0
        )
        journal.close()
    per_update = update_seconds / mutations if mutations else float("nan")

    # Kill-replay contract (small scale — the digest equality is scale-free).
    kr = dict(
        dataset="facebook",
        num_nodes=min(graph.num_nodes, 200),
        seed=0,
        scenario=FaultScenarioConfig(join_rate=0.30, leave_rate=0.10, fault_seed=13),
        rounds=6,
        mcmc_iterations=min(args.mcmc, 40),
        rebalance_every=4,
    )
    _, kr_ego, kr_devices = _constructed_tree(
        kr["dataset"], kr["num_nodes"], kr["seed"], kr["mcmc_iterations"]
    )
    plan = FaultPlan.compile(kr["scenario"], kr_devices, kr["rounds"])
    schedule = compile_churn_schedule(
        plan, kr_ego, rebalance_every=kr["rebalance_every"]
    )
    chaos = crash_seq = None
    for chaos_seed in range(64):
        candidate = ChaosConfig(seed=chaos_seed, crash_rate=0.05)
        predicted = first_crash_seq(candidate, len(schedule))
        if predicted is not None and 1 < predicted < len(schedule):
            chaos, crash_seq = candidate, predicted
            break
    if chaos is None:
        raise AssertionError("no chaos seed produces a mid-schedule crash")

    with tempfile.TemporaryDirectory(prefix="repro-bench-killreplay-") as tmp:
        clean_digest = run_schedule(
            str(Path(tmp) / "clean.lmj"), str(Path(tmp) / "clean-snap"), **kr
        )
        context = multiprocessing.get_context("fork")
        child = context.Process(
            target=run_schedule,
            args=(str(Path(tmp) / "torn.lmj"), str(Path(tmp) / "torn-snap")),
            kwargs={**kr, "chaos": chaos},
        )
        child.start()
        child.join(timeout=600)
        if child.exitcode != 86:
            raise AssertionError(
                f"chaos child exited {child.exitcode}, expected the worker "
                "crash code 86"
            )
        recovered_digest, resumed_at = resume_schedule(
            str(Path(tmp) / "torn.lmj"), str(Path(tmp) / "torn-snap"), **kr
        )
        if resumed_at != crash_seq - 1:
            raise AssertionError(
                f"recovery resumed at seq {resumed_at}, expected "
                f"{crash_seq - 1} (crash during append of seq {crash_seq})"
            )
        if recovered_digest != clean_digest:
            raise AssertionError(
                "kill-replay contract violated: recovered digest differs "
                "from the uninterrupted run"
            )

    return {
        "devices": num_devices,
        "construction_mcmc_iterations": construction_iterations,
        "delta_mutations": mutations,
        "update_seconds": update_seconds,
        "updates_per_second": mutations / update_seconds
        if update_seconds else float("nan"),
        "rebuild_seconds": rebuild_seconds,
        "speedup": rebuild_seconds / per_update if per_update else float("nan"),
        "maintained_objective": maintained_objective,
        "rebuilt_objective": rebuilt_objective,
        "staleness": (maintained_objective - rebuilt_objective)
        / max(rebuilt_objective, 1),
        "kill_replay_devices": kr_devices,
        "kill_replay_mutations": len(schedule),
        "kill_replay_crash_seq": crash_seq,
        "kill_replay_resumed_at": resumed_at,
        "kill_replay_match": True,
    }


def check_trajectory(payload: dict, previous_path: Path) -> list:
    """Compare recorded speedups against the previous BENCH_engine.json.

    Returns a list of human-readable regression descriptions; any entry means
    a tracked speedup fell more than ``REGRESSION_TOLERANCE`` below its
    previously recorded value — the caller fails loudly on that.
    """
    if not previous_path.exists():
        return []
    try:
        previous = json.loads(previous_path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    if previous.get("scale") != payload.get("scale"):
        # Speedups measured at a different scale are not comparable to the
        # recorded trajectory; the caller still overwrites the file, making
        # the new scale the baseline for subsequent runs.
        print("[bench_engine] scale differs from the recorded trajectory; "
              "skipping the regression check", file=sys.stderr)
        return []
    regressions = []
    for section in TRACKED_SPEEDUPS:
        previous_section = previous.get(section, {})
        measured_section = payload.get(section, {})
        recorded = previous_section.get("speedup")
        measured = measured_section.get("speedup")
        if recorded is None or measured is None:
            continue
        recorded_cpus = previous_section.get("cpu_count")
        measured_cpus = measured_section.get("cpu_count")
        if recorded_cpus is not None or measured_cpus is not None:
            # Sections that record a cpu_count (parallel_sweep,
            # secure_transport) measure a ratio the core count determines; a
            # trajectory recorded on a different machine class is not
            # comparable.  Both sides are checked against the *current*
            # box — a partial ``--only`` merge can carry a stale section
            # recorded elsewhere, and comparing such a number against a
            # fresh one is still apples to oranges even when the two stored
            # fields happen to agree.  (Sections without the field skip
            # this guard entirely.)
            current_cpus = os.cpu_count()
            if recorded_cpus != current_cpus or measured_cpus != current_cpus:
                print(f"[bench_engine] {section}: cpu_count differs from the "
                      "current machine; skipping its regression check",
                      file=sys.stderr)
                continue
        floor = recorded * (1.0 - REGRESSION_TOLERANCE)
        if measured < floor:
            regressions.append(
                f"{section}: speedup {measured:.2f}x fell below "
                f"{floor:.2f}x (recorded {recorded:.2f}x, tolerance "
                f"{REGRESSION_TOLERANCE:.0%})"
            )
    return regressions


def main(argv=None, default_output: Optional[Path] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=300)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--mcmc", type=int, default=1000,
                        help="MCMC balancing iterations (paper default for "
                             "the Facebook graph: 1000)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker-pool size of the parallel_sweep section")
    parser.add_argument("--output", default=None,
                        help="output path (default: ./BENCH_engine.json, or "
                             "the repository root when run via "
                             "benchmarks/bench_engine.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, no JSON rewrite, no regression "
                             "gate — exercises every section (tier-1 CI)")
    parser.add_argument("--only", default=None,
                        help="comma-separated section names: measure only "
                             "these, gate only these, and merge them into "
                             "the existing BENCH_engine.json (the recorded "
                             "scale must match)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace-event JSON of the run "
                             "(spans from every section, one track per "
                             "worker process; load in ui.perfetto.dev)")
    args = parser.parse_args(argv)
    if args.only:
        selected = {name.strip() for name in args.only.split(",") if name.strip()}
        unknown = selected - set(TRACKED_SPEEDUPS)
        if unknown:
            parser.error(
                f"unknown section(s) {sorted(unknown)}; "
                f"choose from {list(TRACKED_SPEEDUPS)}"
            )
    else:
        selected = set(TRACKED_SPEEDUPS)
    if args.smoke:
        args.nodes = min(args.nodes, 40)
        args.epochs = min(args.epochs, 3)
        args.mcmc = min(args.mcmc, 25)
        args.repeat = 1
        args.workers = min(args.workers, 2)

    graph = load_dataset("facebook", seed=0, num_nodes=args.nodes)
    split = split_nodes(graph, seed=0)

    print(f"[bench_engine] graph: {graph.num_nodes} devices, "
          f"{graph.num_edges} edges, d={graph.num_features}")
    tracer = None
    if args.trace:
        tracer = obs.Tracer(process="bench")
        obs.set_tracer(tracer)
    sections = {}
    if "treebatch_assembly" in selected:
        treebatch = sections["treebatch_assembly"] = _observed(
            "treebatch_assembly", bench_treebatch, graph, args
        )
        print(f"[bench_engine] TreeBatch assembly: vectorized "
              f"{treebatch['vectorized_seconds'] * 1e3:.2f} ms vs generic "
              f"{treebatch['generic_seconds'] * 1e3:.2f} ms "
              f"({treebatch['speedup']:.1f}x)")
    if "training_epoch" in selected:
        epoch = sections["training_epoch"] = _observed(
            "training_epoch", bench_epoch, graph, split, args
        )
        print(f"[bench_engine] one epoch: fast "
              f"{epoch['numpy_seconds'] * 1e3:.2f} ms "
              f"vs reference {epoch['reference_seconds'] * 1e3:.2f} ms "
              f"({epoch['speedup']:.2f}x)")
    if "mcmc_balancing" in selected:
        mcmc = sections["mcmc_balancing"] = _observed(
            "mcmc_balancing", bench_mcmc_balancing, graph, args
        )
        print(f"[bench_engine] MCMC balancing ({mcmc['iterations']} iterations, "
              f"{mcmc['devices']} devices): incremental "
              f"{mcmc['incremental_seconds'] * 1e3:.1f} ms vs pre-PR kernel "
              f"{mcmc['pre_pr_seconds'] * 1e3:.1f} ms ({mcmc['speedup']:.2f}x)")
    if "greedy_initialization" in selected:
        greedy = sections["greedy_initialization"] = _observed(
            "greedy_initialization", bench_greedy_initialization, graph, args
        )
        print(f"[bench_engine] greedy initialization ({greedy['comparisons']} "
              f"comparisons, {greedy['devices']} devices): batched "
              f"{greedy['batched_seconds'] * 1e3:.2f} ms vs reference "
              f"{greedy['reference_seconds'] * 1e3:.2f} ms "
              f"({greedy['speedup']:.1f}x)")
    if "secure_construction" in selected:
        secure = sections["secure_construction"] = _observed(
            "secure_construction", bench_secure_construction, graph, args
        )
        print(f"[bench_engine] secure construction ({secure['comparisons']} "
              f"protocol runs, {secure['mcmc_iterations']} MCMC iterations, "
              f"{secure['devices']} devices): batched "
              f"{secure['batched_seconds'] * 1e3:.1f} ms vs reference "
              f"{secure['reference_seconds'] * 1e3:.1f} ms "
              f"({secure['speedup']:.1f}x)")
    if "secure_transport" in selected:
        transport = sections["secure_transport"] = _observed(
            "secure_transport", bench_secure_transport, graph, args
        )
        print(f"[bench_engine] secure transport ({transport['comparisons']} "
              f"comparisons, 2 processes): bulk session "
              f"{transport['bulk_seconds'] * 1e3:.1f} ms vs "
              f"{transport['chunks']} chunked sessions "
              f"{transport['chunked_seconds'] * 1e3:.1f} ms "
              f"({transport['speedup']:.2f}x); measured "
              f"{transport['protocol_payload_bytes']} B on-protocol == "
              f"analytic {transport['analytic_payload_bytes']} B "
              f"({transport['wire_bytes']} B wire, "
              f"{transport['frames']} frames)")
    if "epsilon_sweep" in selected:
        sweep = sections["epsilon_sweep"] = _observed(
            "epsilon_sweep", bench_epsilon_sweep, graph, split, args
        )
        print(f"[bench_engine] epsilon sweep ({sweep['points']} points): engine "
              f"{sweep['engine_seconds']:.2f} s vs seed path "
              f"{sweep['seed_path_seconds']:.2f} s ({sweep['speedup']:.2f}x "
              f"end-to-end; pipeline phases "
              f"{sweep['engine_pipeline_seconds']:.2f} s "
              f"vs {sweep['seed_pipeline_seconds']:.2f} s, "
              f"{sweep['pipeline_speedup']:.2f}x; construction ran "
              f"{sweep['construction_runs']}x, tree_batch hit "
              f"{sweep['tree_batch_hits']}x, ldp draws hit "
              f"{sweep['ldp_draws_hits']}x)")
        store_stats = sweep["store_stats"]
        print(f"[bench_engine] sweep store: {store_stats['hits']} hits / "
              f"{store_stats['misses']} misses, "
              f"{store_stats['evictions']} evictions, "
              f"{store_stats['entries']} entries resident")
    if "parallel_sweep" in selected:
        parallel = sections["parallel_sweep"] = _observed(
            "parallel_sweep", bench_parallel_sweep, graph, args
        )
        print(f"[bench_engine] parallel sweep ({parallel['points']} points, "
              f"{parallel['cpu_count']} CPUs): {parallel['workers']} workers "
              f"{parallel['workers_n_seconds']:.2f} s vs 1 worker "
              f"{parallel['workers1_seconds']:.2f} s ({parallel['speedup']:.2f}x; "
              f"serial executor {parallel['serial_seconds']:.2f} s, "
              f"{parallel['vs_serial']:.2f}x vs serial)")
    if "robustness_sweep" in selected:
        robustness = sections["robustness_sweep"] = _observed(
            "robustness_sweep", bench_robustness_sweep, graph, split, args
        )
        print(f"[bench_engine] robustness sweep ({robustness['devices']} devices, "
              f"{robustness['epochs']} epochs): faulted "
              f"{robustness['faulted_seconds']:.2f} s vs fault-free "
              f"{robustness['fault_free_seconds']:.2f} s "
              f"({robustness['speedup']:.2f}x; participation "
              f"{robustness['mean_participation']:.3f}, "
              f"{robustness['dropped_messages']:.0f} dropped messages, "
              f"accuracy delta {robustness['accuracy_delta']:+.3f})")
    if "tree_maintenance" in selected:
        maintenance = sections["tree_maintenance"] = _observed(
            "tree_maintenance", bench_tree_maintenance, graph, args
        )
        print(f"[bench_engine] tree maintenance ({maintenance['devices']} "
              f"devices): {maintenance['updates_per_second']:.0f} journalled "
              f"updates/s ({maintenance['delta_mutations']} mutations in "
              f"{maintenance['update_seconds'] * 1e3:.1f} ms) vs rebuild "
              f"{maintenance['rebuild_seconds']:.2f} s "
              f"({maintenance['speedup']:.0f}x per update; staleness "
              f"{maintenance['staleness']:+.3f}; kill-replay at "
              f"{maintenance['kill_replay_devices']} devices: crash at seq "
              f"{maintenance['kill_replay_crash_seq']}, resumed at "
              f"{maintenance['kill_replay_resumed_at']}, digest match)")

    if tracer is not None:
        obs.set_tracer(None)
        trace = obs.RunTrace.from_tracer(tracer)
        trace_path = obs.write_chrome_trace(trace, args.trace)
        print(f"[bench_engine] trace written to {trace_path} "
              "(load in https://ui.perfetto.dev)")

    payload = {
        "scale": {
            "num_nodes": args.nodes,
            "epochs": args.epochs,
            "mcmc_iterations": args.mcmc,
            "repeat": args.repeat,
            # The tracked parallel_sweep speedup is a 1-vs-N ratio, so N is
            # part of what makes two runs comparable (cpu_count is recorded
            # in the section itself, as interpretation context only).
            "workers": args.workers,
        },
        **sections,
    }
    if args.smoke:
        print("[bench_engine] smoke mode: skipping the JSON rewrite and the "
              "regression gate")
        return 0
    if args.output:
        output = Path(args.output)
    elif default_output is not None:
        output = Path(default_output)
    else:
        output = Path.cwd() / "BENCH_engine.json"
    if args.only:
        # Partial run: gate and rewrite only the measured sections, keep the
        # rest of the recorded trajectory untouched.
        previous = {}
        if output.exists():
            try:
                previous = json.loads(output.read_text())
            except (OSError, json.JSONDecodeError):
                previous = {}
        if previous and previous.get("scale") != payload["scale"]:
            print("[bench_engine] --only requires the recorded scale "
                  f"{previous.get('scale')} (got {payload['scale']}); "
                  "rerun with matching --nodes/--epochs/--mcmc/--repeat/"
                  "--workers or do a full run", file=sys.stderr)
            return 1
        regressions = check_trajectory(payload, output)
        if regressions:
            for regression in regressions:
                print(f"[bench_engine] REGRESSION: {regression}", file=sys.stderr)
            print("[bench_engine] refusing to overwrite the recorded "
                  "trajectory", file=sys.stderr)
            return 1
        merged = {**previous, **payload}
        output.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"[bench_engine] merged {sorted(sections)} into {output}")
        return 0
    regressions = check_trajectory(payload, output)
    if regressions:
        for regression in regressions:
            print(f"[bench_engine] REGRESSION: {regression}", file=sys.stderr)
        print("[bench_engine] refusing to overwrite the recorded trajectory",
              file=sys.stderr)
        return 1
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_engine] wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
