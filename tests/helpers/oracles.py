"""The construction oracles chained the way ``TreeConstructor.construct`` does.

``TreeConstructor`` threads one ``rng`` and one ``TranscriptAccountant``
through Alg. 1 and Alg. 2.  The constructor-level equivalence cases of
``test_mcmc_incremental``, ``test_greedy_batched`` and ``test_secure_batched``
compare it against the same threading over the two oracles
(:func:`repro.core.greedy.greedy_initialization_reference`,
:meth:`repro.core.mcmc.MCMCBalancer.run_reference`).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core import MCMCBalancer, MCMCResult, TreeConstructorConfig
from repro.core.greedy import greedy_initialization_reference
from repro.core.workload import Assignment
from repro.crypto import TranscriptAccountant
from repro.federation import FederatedEnvironment


def construct_with_oracles(
    environment: FederatedEnvironment,
    config: TreeConstructorConfig,
    rng: np.random.Generator,
    secure: bool = False,
) -> Tuple[Assignment, MCMCResult, TranscriptAccountant]:
    """Return ``(greedy_assignment, mcmc_result, transcript)`` of the oracles."""
    transcript = TranscriptAccountant()
    greedy = greedy_initialization_reference(
        environment,
        accountant=transcript,
        bit_width=config.degree_comparison_bits,
        rng=rng,
    )
    balancer = MCMCBalancer(
        environment,
        iterations=config.mcmc_iterations,
        accountant=transcript,
        bit_width=config.workload_comparison_bits,
        secure=secure,
        rng=rng,
    )
    return greedy, balancer.run_reference(greedy), transcript
