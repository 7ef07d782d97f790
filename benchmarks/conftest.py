"""Shared configuration of the benchmark harness.

Every benchmark regenerates one figure (or headline claim) of the paper's
evaluation section and prints the corresponding series, so that
``pytest benchmarks/ --benchmark-only`` produces both timing numbers and the
measured series next to the paper's (quoted in each benchmark's docstring).

The default scale is intentionally small (synthetic graphs of a few hundred
devices, tens of epochs) so the whole suite completes in minutes on a laptop;
set ``REPRO_BENCH_SCALE=medium`` (or ``paper``) for larger runs.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.eval.runner import ExperimentScale  # noqa: E402


def _resolve_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if name == "medium":
        return ExperimentScale.medium()
    if name == "paper":
        return ExperimentScale.paper()
    if name == "small":
        return ExperimentScale.small()
    # Benchmark default: small graphs, enough epochs for the orderings to emerge.
    return ExperimentScale(num_nodes=400, epochs=60, mcmc_iterations=100, seed=0)


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale used by every figure benchmark."""
    return _resolve_scale()
