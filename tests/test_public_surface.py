"""The public surface stays resolvable, and oracles stay out of ``src/``."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re

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


#: Crypto-layer names deleted because nothing outside the tests reached them.
RETIRED_CRYPTO_NAMES = {
    "chaos_comparison_probe",
    "compare_many",
    "secure_max_index",
    "precompute_pads",
    "trace_remote",
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
        modules, ("repro.federation", "repro.engine", "repro.runtime"), RETIRED_LEDGER_NAMES
    )


def test_retired_backend_names_stay_gone(modules):
    assert not _retired_names_found(
        modules, ("repro.nn", "repro.gnn", "repro.core", "repro.engine"), RETIRED_BACKEND_NAMES
    )


def test_retired_chaos_names_stay_gone(modules):
    assert not _retired_names_found(
        modules, ("repro.runtime", "repro.crypto", "repro.maintenance"), RETIRED_CHAOS_NAMES
    )


def test_no_module_mentions_chaos(modules):
    # Fault injection is installed by the tests, so no source under
    # src/repro — docstrings included — has a word for it.
    assert not [m.__name__ for m in modules if "chaos" in inspect.getsource(m).lower()]
