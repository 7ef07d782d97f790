"""Oracles the production paths are compared against.

The construction oracles chained the way ``TreeConstructor.construct`` does:

``TreeConstructor`` threads one ``rng`` and one ``TranscriptAccountant``
through Alg. 1 and Alg. 2.  The constructor-level equivalence cases of
``test_mcmc_incremental``, ``test_greedy_batched`` and ``test_secure_batched``
compare it against the same threading over the two oracles
(:func:`repro.core.greedy.greedy_initialization_reference`,
:meth:`repro.core.mcmc.MCMCBalancer.run_reference`).  And the LDP feature
exchange one scalar message at a time (:func:`ldp_exchange_reference`), and
the candidate argmax one scalar comparison at a time
(:func:`secure_argmax_reference`).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core import MCMCBalancer, MCMCResult, TreeConstructorConfig
from repro.core.greedy import greedy_initialization_reference
from repro.core.workload import Assignment
from repro.crypto import TranscriptAccountant
from repro.crypto.ldp import FeatureBinPartitioner, OneBitMechanism
from repro.federation import FederatedEnvironment, MessageKind


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


def ldp_exchange_reference(
    environment: FederatedEnvironment,
    assignment: Assignment,
    epsilon: float,
    bounds,
    rng: np.random.Generator,
) -> Dict[Tuple[int, int], np.ndarray]:
    """The feature exchange one message at a time: ``(receiver, sender) -> row``.

    One scalar ``OneBitMechanism.encode`` + ``recover`` per message, one
    ``exchange`` per message and one ``charge_compute`` per sender — the
    oracle of the columnar ``LDPEmbeddingInitializer.draw`` / ``threshold``.
    """
    mechanism = OneBitMechanism(epsilon=epsilon, bounds=bounds)
    requesters: Dict[int, list] = {device_id: [] for device_id in environment.devices}
    for receiver, chosen in assignment.selected.items():
        for sender in chosen:
            requesters[int(sender)].append(int(receiver))
    rows: Dict[Tuple[int, int], np.ndarray] = {}
    for sender, receivers in requesters.items():
        feature = environment.devices[sender].ego.feature
        dimension = feature.shape[0]
        workload = max(assignment.workload(sender), 1)
        partitioner = FeatureBinPartitioner(dimension, workload, rng=rng)
        for rank, receiver in enumerate(sorted(receivers)):
            encoded = mechanism.encode(
                feature, workload, dimension=dimension,
                selected=partitioner.mask_for_bin(rank % workload), rng=rng,
            )
            rows[(receiver, sender)] = mechanism.recover(encoded, workload, dimension=dimension)
            environment.exchange(
                sender, receiver, MessageKind.FEATURE_EXCHANGE,
                max(1, (2 * dimension) // 8), description="ldp-feature",
            )
        environment.charge_compute(sender, 0.1 * len(receivers), description="ldp-encoding")
    return rows


def secure_argmax_reference(comparator, values) -> int:
    """The scalar scan ``SecureComparator.argmax`` runs as one verified batch.

    One ``compare`` per position against the best so far; ties resolve to the
    earliest index.
    """
    if not values:
        raise ValueError("argmax of an empty list")
    best_index = 0
    for index in range(1, len(values)):
        outcome = comparator.compare(values[index], values[best_index])
        if outcome.left_ge_right and values[index] != values[best_index]:
            best_index = index
        elif outcome.left_ge_right and values[index] == values[best_index]:
            # Equal values: keep the earlier index (deterministic tie-break).
            continue
    return best_index
