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
            # A class's parameters are those of its ``__init__``, listed on its own.
            parameters = () if inspect.isclass(value) else inspect.signature(value).parameters
            names = {dotted.rpartition(".")[2], *parameters}
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
