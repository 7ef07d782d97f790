"""One production == oracle comparison for construction runs.

A construction kernel and its oracle (``helpers.oracles``) are equivalent
when they leave the same observables behind.  :class:`Run` names what one
run left — its selection, environment, accountant and random stream, plus
the balancing result when Alg. 2 ran — and :func:`assert_equivalent_runs`
compares two of them in every recorded observable: the selection, the
objective history and acceptances, the accountant's counters and capped
log, the ledger's records, summary and per-device counts, and the states
of the run's and the server's generators.  :func:`balanced_run` is the one
Alg. 2 run of the balancing suites, production or oracle, clear or secure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import MCMCBalancer, MCMCResult, greedy_initialization
from repro.crypto import TranscriptAccountant
from repro.federation import FederatedEnvironment

from .oracles import mcmc_run_reference


@dataclass
class Run:
    """What one construction run left behind."""

    #: The resulting selection: an ``Assignment`` or a ``SelectionOracle``.
    selection: object
    environment: FederatedEnvironment
    accountant: TranscriptAccountant
    rng: np.random.Generator
    result: Optional[MCMCResult] = None


def assert_equivalent_runs(fast: Run, slow: Run) -> None:
    """Assert that two runs are bit-for-bit equal in every recorded observable."""
    assert fast.selection.as_lists() == slow.selection.as_lists()
    assert (fast.result is None) == (slow.result is None)
    if fast.result is not None:
        assert fast.result.objective_history == slow.result.objective_history
        assert fast.result.accepted_transitions == slow.result.accepted_transitions
        assert fast.result.iterations == slow.result.iterations
    # The accountants' counters AND capped transcript logs.
    assert fast.accountant.snapshot() == slow.accountant.snapshot()
    assert fast.accountant._log == slow.accountant._log
    # The ledgers carry the same traffic (canonical per-round multiset: the
    # kernels log columnar blocks, the oracles one message at a time).
    n = fast.environment.num_devices
    assert n == slow.environment.num_devices
    assert fast.environment.ledger.message_records() == slow.environment.ledger.message_records()
    assert fast.environment.ledger.summary(n) == slow.environment.ledger.summary(n)
    np.testing.assert_array_equal(
        fast.environment.ledger.per_device_message_counts(n),
        slow.environment.ledger.per_device_message_counts(n),
    )
    # Both leave every random stream in the same state.
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    assert (
        fast.environment.server.rng.bit_generator.state
        == slow.environment.server.rng.bit_generator.state
    )


def balanced_run(graph, *, oracle: bool = False, seed: int = 0, iterations: int = 200,
                 secure: bool = False, bit_width: int = 24) -> Run:
    """Greedy, then Alg. 2 by ``MCMCBalancer.run`` or by its oracle."""
    environment = FederatedEnvironment.from_graph(graph, seed=0)
    initial = greedy_initialization(environment, rng=np.random.default_rng(seed))
    balancer = MCMCBalancer(
        environment,
        iterations=iterations,
        rng=np.random.default_rng(seed + 7),
        secure=secure,
        bit_width=bit_width,
    )
    result = mcmc_run_reference(balancer, initial) if oracle else balancer.run(initial)
    return Run(result.assignment, environment, balancer.accountant, balancer.rng, result)
