"""The public surface stays resolvable, and oracles stay out of ``src/``."""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


@pytest.fixture(scope="module")
def modules():
    """Every ``repro`` module, imported — so a subpackage a package lists in
    its ``__all__`` is an attribute of it by the time the names are checked."""
    walked = pkgutil.walk_packages(repro.__path__, prefix="repro.")
    return [repro, *(importlib.import_module(info.name) for info in walked)]


def test_every_exported_name_resolves_once(modules):
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert len(exported) == len(set(exported)), f"{module.__name__}.__all__ lists a name twice"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ exports undefined {missing}"


def _callables_defined_in(module):
    """Names of the functions, classes and methods ``module`` itself defines."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__ or not callable(value):
            continue
        yield name
        if inspect.isclass(value):
            yield from (
                f"{name}.{attribute}"
                for attribute, member in vars(value).items()
                if callable(getattr(member, "__func__", member))
            )


def test_no_oracle_lives_in_core_or_crypto(modules):
    # One production path per algorithm; its oracle lives in
    # tests/helpers/oracles.py, never beside it.
    oracles = [
        f"{module.__name__}.{name}"
        for module in modules
        if module.__name__.startswith(("repro.core", "repro.crypto"))
        for name in _callables_defined_in(module)
        if name.endswith("_reference")
    ]
    assert not oracles


#: Crypto-layer names deleted because nothing outside the tests reached them
#: (``FeatureBinPartitioner`` lives on in tests/helpers/oracles.py).
RETIRED_CRYPTO_NAMES = {
    "chaos_comparison_probe",
    "compare_many",
    "secure_max_index",
    "precompute_pads",
    "trace_remote",
    "FeatureBinPartitioner",
    "randomize_bits",
}

#: The per-message Alg. 3 methods only the oracle drove, and the round helpers
#: only a test did.
RETIRED_SERVER_NAMES = {
    "receive_candidate",
    "candidate_vertex_set",
    "select_maximum",
    "reset_candidates",
    "broadcast",
    "advance_round",
}

#: What the copied training loops carried, gone with them (``repro.nn.fit``).
RETIRED_TRAINING_NAMES = {
    "log_every",
    "negative_samples_per_edge",
    "_BatchGraphInput",
    "_charge_epoch_faulted",
    "_train_supervised_impl",
    "_train_unsupervised_impl",
    "_pair_auc",
    "_sample_negatives",
}

#: The ledger's second representation and everything that read it: the event
#: classes, the unused straggler model, the per-quantity accessors (the query
#: surface is ``summary`` / ``message_records`` / ``per_device_*``), and the
#: two ``ProcessExecutor`` knobs nothing passed.
RETIRED_LEDGER_NAMES = {
    "Message",
    "BulkMessageEvent",
    "ComputeEvent",
    "BulkComputeEvent",
    "TransportFrame",
    "epoch_completion_time",
    "total_messages",
    "total_bytes",
    "device_to_device_messages",
    "total_dropped_messages",
    "total_dropped_bytes",
    "total_transport_frames",
    "total_transport_payload_bytes",
    "total_transport_wire_bytes",
    "start_method",
    "store_bytes",
}

#: The backend registry and everything that selected the un-fused graphs in
#: production: one numpy backend remains, and the composite forms (with the
#: edge softmax they used) are the oracles in tests/helpers/oracles.py.
RETIRED_BACKEND_NAMES = {
    "ReferenceBackend",
    "OpsBackend",
    "allow_fused",
    "register_backend",
    "available_backends",
    "set_backend",
    "use_backend",
    "segment_softmax",
    "embedding_mean",
}


#: The fault injection production code carried for the tests: the seeded
#: schedule, the parameters that threaded it through the runtime worker, the
#: two-party transport and the maintained tree, the torn-frame writer and the
#: kill-replay harness.  The crash points live in tests/helpers/crash_points.py.
RETIRED_CHAOS_NAMES = {
    "ChaosConfig",
    "chaos_action",
    "chaos",
    "chaos_attempt",
    "first_crash_seq",
    "append_torn",
    "run_schedule",
    "resume_schedule",
}


#: The protocol surface production never ran: the 1-out-of-2 OT with its pad
#: draws and its two-party session, the one-at-a-time comparator (its
#: oracle is ``secure_compare_reference`` in tests/helpers/oracles.py), and
#: the zero-knowledge wrappers that only passed through to ``SecureComparator``.
RETIRED_PROTOCOL_NAMES = {
    "ObliviousTransfer",
    "OTResult",
    "record_ot",
    "transfer_batch",
    "transfer_table",
    "_draw_pad_block",
    "RemoteOTOutcome",
    "ot_payload_bytes",
    "_serve_ot",
    "_serve_session",
    "_pack_values",
    "_unpack_values",
    "OT_REQUEST",
    "OT_RESPONSE",
    "ComparisonResult",
    "bits_per_comparison",
    "_operand_array",
    "compare",
    "_block_compare",
    "zero_knowledge",
    "DegreeComparisonProtocol",
    "DegreeComparisonOutcome",
    "WorkloadComparisonProtocol",
    "compare_degrees",
    "compare_degrees_many",
    "compare_workloads_many",
    "is_local_maximum",
    "objective_difference",
    "log_degree_bucket",
    "verify_zero_knowledge_transcript",
}


#: The model surface only tests reached: the autograd ops, layers, optimizer,
#: losses, initialisers and functional kernels nobody trains with, the pooling
#: knob with its ``sum`` / ``max`` fork (mean pooling, Eq. 31, is the one
#: readout), and the metric / graph / environment helpers only tests called.
#: The ops the composite oracles still record live in tests/helpers/autograd.py.
RETIRED_AUTOGRAD_NAMES = {
    "__sub__",
    "__rsub__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "__radd__",
    "__rmul__",
    "T",
    "ndim",
    "numpy",
    "reshape",
    "transpose",
    "max",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "as_tensor",
    "ones",
    "stack",
    "concat",
    "MLP",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Sequential",
    "SGD",
    "Optimizer",
    "nll_loss",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "_abs",
    "xavier_normal",
    "kaiming_uniform",
    "scatter_add",
    "gather_rows_columns",
    "log_softmax",
    "segment_counts",
    "segment_max",
    "register_parameter",
    "children",
    "num_parameters",
    "pooling",
    "get_pooling",
    "POOLING_FUNCTIONS",
    "mean_pool",
    "sum_pool",
    "max_pool",
    "_uses_mean_pool",
    "build_edge_index",
    "from_adjacency",
    "predict",
    "score_pairs",
    "predict_proba",
    "f1_macro",
    "confusion_matrix",
    "subgraph",
    "has_edge",
    "from_edge_list",
    "from_networkx",
    "validate_edge_coverage",
    "adjacency_from_edge_index",
    "laplacian",
}

#: Retired members whose names live on under another owner (``Adam.zero_grad``,
#: ``HeadBlockedEdges.softmax``, ``init.zeros``, ``Device.degree``, parameters
#: called ``size`` or ``assignment``): gone from these owners only.  The edge
#: plan's per-head arrays and kernels moved to its head-blocked plan.
RETIRED_AUTOGRAD_MEMBERS = {
    "repro.nn.tensor": {"zeros"},
    "repro.nn.tensor.Tensor": {"__getitem__", "__len__", "copy", "size"},
    "repro.nn.functional": {"softmax"},
    "repro.nn.backend.FastNumpyBackend": {"segment_sum"},
    "repro.nn.backend.PreparedEdges": {
        "order", "attention_matrix", "segments", "starts", "run_lengths", "indices", "indptr",
        "softmax", "softmax_backward", "segment_sum",
    },
    "repro.nn.module.Module": {"zero_grad", "forward"},
    "repro.gnn.models.GraphInput": {"num_nodes"},
    "repro.graph.graph.Graph": {"degree"},
    "repro.federation.simulator.FederatedEnvironment": {"degrees", "workloads", "assignment"},
}


#: The per-vertex federation objects: a device is a row of the environment's
#: CSR and feature matrix, so the device / ego-network wrappers, the Graph's
#: per-vertex neighbour cache, the environment's test-only accessors and the
#: per-device local graphs (now the tree oracle in tests/helpers/oracles.py)
#: are gone from ``src/``.
RETIRED_FEDERATION_NAMES = {
    "Device",
    "build_devices",
    "select_all_neighbors",
    "select_neighbors",
    "selected_neighbors",
    "EgoNetwork",
    "validate_partition",
    "edge_tuples",
    "has_neighbor",
    "_neighbor_cache",
    "_build_neighbor_cache",
    "_directed_edges_cache",
    "_adjacency_csr_cache",
    "device_ids",
    "is_available",
    "charge_compute",
    "LocalGraph",
    "LocalNode",
    "NodeRole",
    "build_tree",
    "build_star",
    "expected_tree_size",
    "count_leaves",
    "CanonicalLocalGraphs",
}

#: Retired members whose names live on under other owners (``max_workload``
#: of a construction, ``exchange`` in the oracles).
RETIRED_FEDERATION_MEMBERS = {
    "repro.federation.simulator.FederatedEnvironment": {"devices", "max_workload", "exchange"},
    "repro.core.constructor.TreeConstructionResult": {"local_graphs"},
}


#: The process runtime: the worker pool with its deadline, retry and backoff
#: machinery and report types, the executor classes and the ``executor=``
#: parameter that chose one, the shared-prefix warm-up and the stage-key
#: planning behind it, the callable escape hatch, the party start that lifted
#: a pool worker's daemon flag, and the tracer's cross-process merge.  Then
#: the rest of ``repro.runtime``: the content-keyed work items with their
#: graph recipe and its memo, and the deduplicating work plan with the
#: runner's loop over it.  An experiment is a loop over its arms in
#: ``repro.eval.runner``, and the channel lives in ``repro.crypto.channel``.
RETIRED_RUNTIME_NAMES = {
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "WorkItemFailure",
    "FailedAttempt",
    "RuntimeReport",
    "ItemRecord",
    "backoff_delay",
    "DEFAULT_BACKOFF_BASE",
    "BACKOFF_CAP_SECONDS",
    "shared_prefix_plan",
    "WarmupRun",
    "stage_chain",
    "stage_keys",
    "CallableItem",
    "worker_main",
    "open_worker_store",
    "DEFAULT_STORE_BYTES",
    "executor",
    "attach_remote",
    "_start_party",
    "WorkItem",
    "LumosItem",
    "BaselineItem",
    "GraphSpec",
    "_GRAPH_CACHE",
    "_empty_payload",
    "WorkPlan",
    "_run_plan",
    "_graph_spec",
    "_lumos_items",
    "BASELINE_METHODS",
    "normalized_graph",
}

#: What the tracer kept for worker processes: ``RunTrace``'s list of process
#: snapshots and its views over them, the registry's merge of another
#: process's snapshot, and the process name of a tracer.  A run has one
#: tracer, one snapshot and one ``main`` track.
RETIRED_OBS_NAMES = {
    "snapshots",
    "processes",
    "merged_metrics",
    "merge",
    "process",
}


#: The dict-of-sets ``Assignment``.  A selection is a bool mask over the
#: environment's CSR positions: ``selected`` is ``kept``, ``workload_vector``
#: folded into ``workload_array``, and the constructors and queries only
#: tests called moved to ``helpers.oracles.SelectionOracle`` (or went).  The
#: maintained tree's dict of sets and its localized rebalance live in
#: ``repro.maintenance.tree``.
RETIRED_ASSIGNMENT_NAMES = {"localized_rebalance"}
RETIRED_ASSIGNMENT_MEMBERS = {
    "repro.core.workload.Assignment": {
        "selected",
        "full",
        "from_lists",
        "workload",
        "workloads",
        "workload_vector",
        "argmax_workload",
        "transfer",
        "statistics",
        "uncovered_edges",
        "is_consistent_with",
    },
}


#: Alg. 3's second way to find candidates: clear mode's neighbour maxima, their
#: multiplicities and candidate flags, updated by deltas over Python-list
#: rows, and secure mode's own entry point, speculation and memo.  One prefix
#: scan, memoised per kernel version, serves both modes.  The methods are
#: checked anywhere under ``repro``; the state on a kernel that has run a
#: transfer (``candidate`` lives on as a local name).
RETIRED_ALG3_KERNEL_METHODS = {
    "_update_maxima",
    "_neighborhood_maxima",
    "_refresh_candidates",
    "find_max_workload_device_secure",
    "_speculate",
}
RETIRED_ALG3_KERNEL_STATE = {
    "_neighbors",
    "neighbor_max",
    "neighbor_max_count",
    "candidate",
    "_winners_memo",
    "_prefix_memo",
}


#: The stage framework around the artifact store: a deployment's stages are
#: ``LumosSystem`` methods over one cached step (``LumosSystem._cached``), so
#: the pipeline, its context, the stage classes and the stage list are gone.
RETIRED_ENGINE_NAMES = {
    "Pipeline",
    "build_lumos_pipeline",
    "PipelineContext",
    "Stage",
    "PartitionStage",
    "TreeConstructionStage",
    "LDPDrawsStage",
    "EmbeddingInitStage",
    "TreeBatchStage",
    "lumos_stages",
    "_run_stage",
    "_capture",
    "_replay_side_effects",
    "_ledger_mark",
}

#: Members only tests read: three headline summaries (the tests read the
#: ledger summary, ``workload_array()`` and the graph's own fields), and the
#: store's per-stage counters besides ``summary()``.  Owner-scoped, since
#: ``total`` and ``summary`` live on under other owners (``_Table.total``,
#: ``CommunicationLedger.summary``, ``ArtifactStore.summary``).
RETIRED_SUMMARY_MEMBERS = {
    "repro.core.lumos.LumosSystem": {"summary", "_stage"},
    "repro.federation.simulator.FederatedEnvironment": {"summary"},
    "repro.graph.graph.Graph": {"summary"},
    "repro.engine.store.ArtifactStore": {"hit_count", "miss_count"},
    "repro.engine.store.StageStats": {"total"},
}

#: What ``src/`` defined or computed for tests alone, or for no reader at
#: all.  Module-level names, anywhere under ``repro``: the tests' own helpers
#: replace them (``helpers.rng_contract.schedule_digest``,
#: ``helpers.crash_points.compile_churn_schedule`` / ``apply_schedule``,
#: ``helpers.graphs``), or they went (``relative_difference_percent`` is
#: ``eval.metrics.relative_change``).
RETIRED_UNREAD_NAMES = {
    "schedule_digest",
    "compile_churn_schedule",
    "apply_schedule",
    "generate_small_world",
    "generate_star",
    "available_datasets",
    "fingerprint_array",
    "write_spans_jsonl",
    "relative_difference_percent",
    "_strong_ref",
}

#: Owner-scoped: members, dataclass fields and parameters that went, since
#: names like ``snapshot``, ``seconds`` or ``__repr__`` live on elsewhere.
#: The tests derive what they read (``helpers.oracles.received_features`` /
#: ``dense_features`` / ``device_slices``, ``greedy_initialization`` called
#: directly, the environment's ``ledger.summary(n)``); the plan's per-round
#: accessors are array indexing in the trainer.
RETIRED_UNREAD_MEMBERS = {
    "repro.faults.plan.FaultPlan": {
        "online_mask",
        "latency_row",
        "evicted_mask",
        "lost_mask",
        "participants",
        "present_mask",
        "is_empty",
        "participation_fraction",
        "fingerprint",
        "schedule_digest",
    },
    "repro.maintenance.monitor.StalenessReport": {"epoch_time_ratio"},
    "repro.maintenance.monitor.StalenessMonitor": {"cost_model", "rebalance_iterations"},
    "repro.maintenance.churn.churn_maintenance_metrics": {"reference_iterations"},
    "repro.core.trainer.EpochCostModel": {"steady_state_epoch_time"},
    "repro.core.trainer.SupervisedHistory": {"wall_clock_seconds", "train_accuracy"},
    "repro.core.trainer.UnsupervisedHistory": {"wall_clock_seconds"},
    "repro.baselines.centralized.CentralizedResult": {"wall_clock_seconds"},
    "repro.nn.fit.FitResult": {"seconds"},
    "repro.core.lumos.LumosSupervisedResult": {"ledger_summary"},
    "repro.core.lumos.LumosUnsupervisedResult": {"ledger_summary"},
    "repro.core.trainer.TreeBatch": {"device_slices", "neighbor_rows"},
    "repro.core.constructor.TreeConstructionResult": {"greedy_assignment"},
    "repro.core.embedding_init.EmbeddingInitializationResult": {"received_features", "bytes_sent"},
    "repro.crypto.channel.ChannelStats": {"snapshot"},
    "repro.crypto.transport.TransportReport": {"snapshot"},
    "repro.crypto.ldp.FeatureBounds": {"width"},
    "repro.crypto.ldp.OneBitMechanism": {"encode_and_recover"},
    "repro.crypto.ldp.OneBitMechanism.encode": {"selected"},
    "repro.graph.splits.NodeSplit": {"num_nodes"},
    "repro.nn.backend.PreparedMatrix": {"shape", "csr_t"},
    "repro.nn.shared_rows.SharedRowFeatures": {"dense"},
    "repro.gnn.gat.GATLayer": {"output_dim", "__repr__"},
    "repro.gnn.gcn.GCNLayer": {"__repr__"},
    "repro.nn.layers.Linear": {"__repr__"},
    "repro.nn.layers.Dropout": {"__repr__"},
    "repro.nn.tensor.Tensor": {"__repr__"},
    "repro.obs.metrics.MetricsRegistry": {"__bool__"},
}


def _retired_names_found(modules, packages, retired):
    """Where a retired name survives under ``packages``: as a module
    attribute, as a function, class or method, or as a parameter of one."""
    found = []
    for module in modules:
        if not module.__name__.startswith(packages):
            continue
        found += [f"{module.__name__}.{name}" for name in retired & set(vars(module))]
        for dotted in _callables_defined_in(module):
            value = module
            for part in dotted.split("."):
                value = getattr(value, part)
            # A class's parameters are those of its ``__init__``, listed on its
            # own; its attributes (``allow_fused = True``) are names it holds.
            members = vars(value) if inspect.isclass(value) else inspect.signature(value).parameters
            names = {dotted.rpartition(".")[2], *members}
            found += [f"{module.__name__}.{dotted}: {name}" for name in retired & names]
    return found


def test_retired_crypto_names_stay_gone(modules):
    assert not _retired_names_found(modules, "repro.crypto", RETIRED_CRYPTO_NAMES)


def test_retired_server_and_training_names_stay_gone(modules):
    assert not _retired_names_found(modules, "repro.federation", RETIRED_SERVER_NAMES)
    assert not _retired_names_found(
        modules, ("repro.core", "repro.baselines"), RETIRED_TRAINING_NAMES
    )


def test_one_module_steps_an_optimizer(modules):
    # Lumos and the baselines train through ``repro.nn.fit.fit``; a second
    # ``backward`` + ``step`` anywhere under ``src/repro`` is a copied loop.
    loops = [
        module.__name__
        for module in modules
        if re.search(r"\.backward\(\).*?\.step\(\)", inspect.getsource(module), re.DOTALL)
    ]
    assert loops == ["repro.nn.fit"]


def test_retired_ledger_names_stay_gone(modules):
    assert not _retired_names_found(
        modules,
        ("repro.federation", "repro.engine", "repro.crypto", "repro.eval"),
        RETIRED_LEDGER_NAMES,
    )


def test_retired_backend_names_stay_gone(modules):
    assert not _retired_names_found(
        modules, ("repro.nn", "repro.gnn", "repro.core", "repro.engine"), RETIRED_BACKEND_NAMES
    )


def test_retired_chaos_names_stay_gone(modules):
    assert not _retired_names_found(
        modules, ("repro.crypto", "repro.eval", "repro.maintenance"), RETIRED_CHAOS_NAMES
    )


def test_retired_protocol_names_stay_gone(modules):
    assert not _retired_names_found(
        modules, ("repro.crypto", "repro.core", "repro.eval"), RETIRED_PROTOCOL_NAMES
    )


def test_retired_autograd_names_stay_gone(modules):
    assert not _retired_names_found(
        modules,
        ("repro.nn", "repro.gnn", "repro.eval", "repro.graph", "repro.federation", "repro.core"),
        RETIRED_AUTOGRAD_NAMES,
    )
    survivors = []
    for owner, names in RETIRED_AUTOGRAD_MEMBERS.items():
        value = _resolve(owner)
        survivors += [f"{owner}.{name}" for name in names if hasattr(value, name)]
    assert not survivors


def test_retired_federation_names_stay_gone(modules):
    assert not _retired_names_found(
        modules,
        ("repro.federation", "repro.graph", "repro.core", "repro.engine"),
        RETIRED_FEDERATION_NAMES,
    )
    survivors = []
    for owner, names in RETIRED_FEDERATION_MEMBERS.items():
        value = _resolve(owner)
        members = {*vars(value), *(field.name for field in dataclasses.fields(value))}
        survivors += [f"{owner}.{name}" for name in names & members]
    assert not survivors


def test_retired_runtime_names_stay_gone(modules):
    assert importlib.util.find_spec("repro.runtime") is None
    assert not _retired_names_found(
        modules,
        ("repro.eval", "repro.engine", "repro.obs", "repro.core", "repro.crypto"),
        RETIRED_RUNTIME_NAMES,
    )
    from repro.obs import Tracer

    assert "remote_snapshots" not in vars(Tracer())


def test_retired_obs_names_stay_gone(modules):
    assert not _retired_names_found(modules, "repro.obs", RETIRED_OBS_NAMES)
    from repro.obs import MetricsRegistry, RunTrace, Tracer

    survivors = [
        name
        for owner in (RunTrace(), MetricsRegistry(), Tracer())
        for name in RETIRED_OBS_NAMES & {*vars(owner), *dir(type(owner))}
    ]
    assert not survivors


def test_training_has_one_pooling():
    # Mean pooling (Eq. 31) is the readout; there is no knob to choose another.
    from repro.core import TrainerConfig

    assert "pooling" not in {field.name for field in dataclasses.fields(TrainerConfig)}


def _resolve(dotted: str):
    """The module or class ``dotted`` names."""
    parts = dotted.split(".")
    for stop in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:stop]))
        except ImportError:
            continue
        for part in parts[stop:]:
            value = getattr(value, part)
        return value
    raise ImportError(dotted)


def test_no_comparator_takes_a_random_stream():
    # The table OTs need no masking randomness, so nothing on the comparison
    # path has a generator to draw from.
    from repro.crypto import RemoteParty, SecureComparator

    for cls in (SecureComparator, RemoteParty):
        assert "rng" not in inspect.signature(cls).parameters


def test_no_module_mentions_chaos(modules):
    # Fault injection is installed by the tests, so no source under
    # src/repro — docstrings included — has a word for it.
    assert not [m.__name__ for m in modules if "chaos" in inspect.getsource(m).lower()]


#: The retired second Alg. 3 traffic model: the aggregated server-to-server
#: announcement rows and the oracle's switch between the two models.  Spelt
#: as patterns, so this file does not itself hold the words.
RETIRED_ALG3_TEXT = re.compile(r"alg3-(?:candidate|maximum)-announcements|per_device[_]ledger")


def test_no_source_mentions_the_aggregated_alg3_model():
    # Clear and secure mode record one Alg. 3 transcript (per-device
    # announcements), in production and in the oracle alike.
    tests = Path(__file__).parent
    sources = [*Path(repro.__file__).parent.rglob("*.py"), *(tests / "helpers").rglob("*.py")]
    assert not [str(path) for path in sources if RETIRED_ALG3_TEXT.search(path.read_text())]


#: The bulk recording calls of ``CommunicationLedger``, and the numpy
#: builders that would fill one of their columns with one repeated value.
BULK_RECORDERS = {"send_many", "drop_many", "compute_many"}
CONSTANT_BUILDERS = {"full", "ones", "full_like", "tile"}


def _builds_constant(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in CONSTANT_BUILDERS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    )


def test_no_bulk_recording_builds_a_constant_column():
    # A column that is one value in every row of a block is a stride-0
    # ``constant_column``, never ``len(block)`` copies: a ledger block stores
    # only what is distinct about it.  Flags a builder anywhere in a recording
    # call's arguments, or a local name a builder was assigned to.
    root = Path(repro.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            built = {
                target.id
                for node in ast.walk(function)
                if isinstance(node, ast.Assign) and any(map(_builds_constant, ast.walk(node.value)))
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for call in ast.walk(function):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in BULK_RECORDERS
                ):
                    continue
                arguments = [*call.args, *(keyword.value for keyword in call.keywords)]
                if any(
                    _builds_constant(node) or (isinstance(node, ast.Name) and node.id in built)
                    for argument in arguments
                    for node in ast.walk(argument)
                ):
                    found.add(f"{path.relative_to(root)}:{call.lineno}")
    assert not found, sorted(found)


#: Where ``src/`` may read ``FederatedEnvironment.features``: the LDP release
#: (each sender perturbs its own row before it crosses to a receiver) and the
#: trainer's own-feature rows (each device reads its own row in clear).
FEATURE_READERS = {"core/embedding_init.py:LDPEmbeddingInitializer", "core/trainer.py:TreeBatch._own_features"}


def feature_readers(root: Path) -> set:
    """``path:Class.function`` of every ``<environment>.features`` read under
    ``root``: an attribute ``features`` taken of a name or attribute called
    ``environment``.  The environment's own module is its owner, not a reader.
    """
    readers = set()

    def visit(node, scope, path):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = [*scope, node.name]
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "features"
            and (getattr(node.value, "id", None) == "environment"
                 or getattr(node.value, "attr", None) == "environment")
        ):
            readers.add(f"{path}:{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative != "federation/simulator.py":
            visit(ast.parse(path.read_text()), [], relative)
    return readers


def test_only_the_ldp_release_and_own_rows_read_environment_features():
    # The privacy boundary is the ledger: nothing crosses devices unrecorded.
    # The feature matrix holds every device's private row, so any other
    # reader could move one device's feature to another off the ledger.
    readers = feature_readers(Path(repro.__file__).parent)
    assert readers, "the guard no longer sees the feature reads it is meant to police"
    strays = {
        reader
        for reader in readers
        if not any(reader == allowed or reader.startswith(allowed + ".") for allowed in FEATURE_READERS)
    }
    assert not strays, sorted(strays)


def test_retired_assignment_members_stay_gone(modules):
    assert not _retired_names_found(
        modules, ("repro.core", "repro.federation"), RETIRED_ASSIGNMENT_NAMES
    )
    survivors = []
    for owner, names in RETIRED_ASSIGNMENT_MEMBERS.items():
        value = _resolve(owner)
        members = {*vars(value), *(field.name for field in dataclasses.fields(value))}
        survivors += [f"{owner}.{name}" for name in names & members]
    assert not survivors


def test_retired_alg3_kernel_members_stay_gone(modules):
    from helpers.oracles import full_assignment
    from repro.core.mcmc import _IncrementalBalancingKernel
    from repro.federation import FederatedEnvironment
    from repro.graph import generate_facebook_like

    assert not _retired_names_found(modules, "repro", RETIRED_ALG3_KERNEL_METHODS)
    environment = FederatedEnvironment.from_graph(generate_facebook_like(seed=0, num_nodes=30), seed=0)
    kernel = _IncrementalBalancingKernel(environment, full_assignment(environment))
    source = kernel.find_max_workload_device(0)
    kernel.apply(source, kernel.assignment.kept_neighbors(source)[:1].tolist())
    kernel.find_max_workload_device(0)
    kernel.revert()
    retired = RETIRED_ALG3_KERNEL_METHODS | RETIRED_ALG3_KERNEL_STATE
    assert not retired & {*vars(kernel), *vars(type(kernel))}


def test_retired_engine_names_stay_gone(modules):
    # repro.engine is the store and its fingerprints; it reads nothing of the
    # layers whose stages it caches.
    for name in ("pipeline", "stages"):
        assert importlib.util.find_spec(f"repro.engine.{name}") is None
    assert not _retired_names_found(modules, ("repro.engine", "repro.core"), RETIRED_ENGINE_NAMES)
    engine = Path(repro.__file__).parent / "engine"
    imports = re.compile(r"^\s*from \.\.(core|federation|graph)\b", re.MULTILINE)
    assert not [path.name for path in engine.glob("*.py") if imports.search(path.read_text())]
    survivors = []
    for owner, names in RETIRED_SUMMARY_MEMBERS.items():
        value = _resolve(owner)
        survivors += [f"{owner}.{name}" for name in names if hasattr(value, name)]
    assert not survivors


#: Process-wide caches.  Derived structure lives on the object it comes from
#: (``TreeBatch._derived``, ``GraphInput``, ``SharedRowFeatures.gather``) and
#: a run owns its artifact store, so the identity cache, the memos of the
#: normalised graph and its fingerprint, the backend's per-index plans and
#: the default store are gone.
RETIRED_CACHE_NAMES = {
    "IdentityCache",
    "default_store",
    "_default_store",
    "_normalized_graph",
    "_normalized_graphs",
    "_graph_cache",
    "_per_index",
    "prepare_edges",
    "pooled_edge_index",
}


def test_retired_cache_names_stay_gone(modules):
    assert importlib.util.find_spec("repro.caching") is None
    assert not _retired_names_found(modules, "repro", RETIRED_CACHE_NAMES)
    from repro.nn.backend import FastNumpyBackend

    assert not vars(FastNumpyBackend())  # stateless kernels


def test_every_reachability_keep_entry_names_a_def():
    # The probe (tests/tools/reachability.py) skips the defs on its keep-list;
    # an entry whose def is gone or renamed skips nothing and goes stale.
    path = Path(__file__).parent / "tools" / "reachability.py"
    spec = importlib.util.spec_from_file_location("reachability", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    found = {(relative, name) for relative, name, _ in probe.collect_defs().values()}
    assert not sorted(probe.KEEP - found)


def _own_members(value):
    """The names ``value`` defines itself: a class's own attributes and
    dataclass fields, a callable's parameters (a class's are its
    ``__init__``'s)."""
    names = set(vars(value)) if inspect.isclass(value) else set()
    if dataclasses.is_dataclass(value):
        names |= {field.name for field in dataclasses.fields(value)}
    return names | set(inspect.signature(value).parameters)


def test_retired_unread_names_stay_gone(modules):
    assert not _retired_names_found(modules, "repro", RETIRED_UNREAD_NAMES)
    survivors = []
    for owner, names in RETIRED_UNREAD_MEMBERS.items():
        survivors += [f"{owner}.{name}" for name in names & _own_members(_resolve(owner))]
    assert not survivors
