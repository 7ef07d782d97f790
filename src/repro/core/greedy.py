"""Greedy initialisation of the workload-balancing solution (paper Alg. 1).

For every device ``u`` and every neighbour ``v``, the two endpoint devices
run one zero-knowledge degree comparison on the bucketised degrees
``round(ln(deg))``.  Device ``u`` keeps neighbour ``v`` in its tree only when
``round(ln(deg(v))) >= round(ln(deg(u)))`` — i.e. the lower-degree endpoint
keeps the edge, filling the workload gap between devices with a large degree
difference.  When the two buckets are equal *both* endpoints keep the edge
(both comparisons return ``>=``), which is exactly the behaviour of Alg. 1
and guarantees the edge-coverage constraint of Eq. 10.

There is one production path, :func:`greedy_initialization`: all
directed-edge comparisons run as one numpy block
(:meth:`~repro.crypto.zero_knowledge.DegreeComparisonProtocol.compare_degrees_many`),
the accountant is charged with one bulk pattern record and the ledger with
one columnar :class:`~repro.federation.events.BulkMessageEvent`.  With
``secure=True`` the outcome bits are produced by the *vectorised
millionaires' protocol itself* (batched table-OT simulation,
``execute=True``) rather than the analytic evaluation, so the structural
information boundary of a per-edge protocol run is preserved while the whole
block still runs in one pass.

Its oracle — the per-edge message-level protocol loop — lives with the tests
(``tests/helpers/oracles.py``); ``tests/test_greedy_batched.py`` and
``tests/test_secure_batched.py`` compare the two on selected sets, accountant
totals and capped log, canonical ledger transcript and RNG state.

**RNG stream contract** — the phase never draws from the shared random
stream: the simulated 1-out-of-2^m table OTs need no masking randomness, so
it is RNG-transparent and leaves any seeded generator untouched (pinned by
the same suites).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..crypto.oblivious_transfer import TranscriptAccountant
from ..crypto.zero_knowledge import DegreeComparisonProtocol
from ..federation.events import MessageKind
from ..federation.simulator import FederatedEnvironment
from .workload import Assignment


def comparison_message_bytes(bits_exchanged: int) -> int:
    """Ledger size of one SECURE_COMPARISON message.

    Both directions of a degree comparison carry the same transcript share;
    the batched block and the per-edge oracle both derive their per-message
    byte count from this single helper so the two accountings cannot drift.
    """
    return max(1, int(bits_exchanged) // 8)


def greedy_initialization(
    environment: FederatedEnvironment,
    accountant: Optional[TranscriptAccountant] = None,
    bit_width: int = 8,
    rng: Optional[np.random.Generator] = None,
    secure: bool = False,
) -> Assignment:
    """Run Alg. 1 over the federated environment and return the assignment.

    One secure comparison is charged per *directed* neighbour relation
    (matching the per-device loop of Alg. 1, whose complexity is
    ``O(max_v deg(v) * L log L)``).  The transcripts (OT invocations, bits)
    accumulate into ``accountant`` and each comparison is charged to the
    environment's communication ledger as ``SECURE_COMPARISON`` traffic.

    ``secure`` makes the block *execute* the vectorised millionaires'
    protocol for its outcome bits instead of evaluating them analytically;
    every recorded observable is the same either way.  ``rng`` is the
    construction stream the caller threads through Alg. 1 and Alg. 2; this
    phase never draws from it (see the module docstring).
    """
    accountant = accountant if accountant is not None else TranscriptAccountant()
    num_devices = environment.num_devices
    sources, destinations = environment.directed_edges()
    degrees = np.bincount(sources, minlength=num_devices)

    protocol = DegreeComparisonProtocol(bit_width=bit_width, accountant=accountant)
    count = int(sources.shape[0])
    keep = np.zeros(0, dtype=bool)
    if count:
        # Line 4 of Alg. 1 over all directed edges at once: device u keeps v
        # when round(ln deg(v)) >= round(ln deg(u)).
        batch = protocol.compare_degrees_many(
            degrees[destinations], degrees[sources], execute=secure
        )
        keep = batch.left_ge_right
        size_bytes = comparison_message_bytes(batch.cost.bits)
        round_index = environment.ledger.current_round
        environment.ledger.send_many(
            np.concatenate([sources, destinations]),
            np.concatenate([destinations, sources]),
            MessageKind.SECURE_COMPARISON,
            np.full(2 * count, size_bytes, dtype=np.int64),
            np.full(2 * count, round_index, dtype=np.int64),
            description="greedy-degree-comparison",
        )

    kept = destinations[keep].tolist()
    row_ends = np.cumsum(np.bincount(sources[keep], minlength=num_devices)).tolist()
    assignment = Assignment(
        selected={
            device_id: set(kept[start:stop])
            for device_id, (start, stop) in enumerate(zip([0] + row_ends, row_ends))
        }
    )
    environment.apply_assignment(assignment.selected)
    return assignment
