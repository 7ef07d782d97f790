"""Zero-knowledge degree / workload comparison protocols (paper Definition 2).

The tree constructor never exchanges raw degrees or workloads between
devices.  Instead it runs the secure comparison of
:mod:`repro.crypto.secure_compare` on transformed values:

* greedy initialisation compares ``round(ln(deg))`` of the two endpoints of
  every edge (Alg. 1, line 4) — the logarithm both shrinks the bit width of
  the secure comparison and ignores small degree differences;
* the MCMC iteration compares raw workloads to find the most loaded device
  (Alg. 3) and to evaluate the Metropolis-Hastings acceptance difference
  ``f(X_t) - f(X'_t)`` (Alg. 2, line 7).

Every protocol instance exposes only booleans / signed differences of
workloads that the paper's protocol itself reveals, and logs its
communication into a shared :class:`TranscriptAccountant` so system-cost
benches can report crypto overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .oblivious_transfer import TranscriptAccountant
from .secure_compare import BatchComparisonResult, SecureComparator


def log_degree_bucket(degree: int) -> int:
    """Return ``round(ln(degree))``, the bucketised degree used by Alg. 1."""
    if degree <= 0:
        return 0
    return int(round(math.log(degree)))


def log_degree_buckets(degrees) -> np.ndarray:
    """Vectorised :func:`log_degree_bucket` over an integer array.

    ``np.rint`` rounds halves to even exactly like python's ``round``, so the
    array path is element-for-element identical to the scalar one.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    buckets = np.zeros(degrees.shape, dtype=np.int64)
    positive = degrees > 0
    if positive.any():
        buckets[positive] = np.rint(np.log(degrees[positive])).astype(np.int64)
    return buckets


@dataclass(frozen=True)
class DegreeComparisonOutcome:
    """Result of a zero-knowledge degree comparison between two devices."""

    left_bucket_ge_right: bool
    bits_exchanged: int


class DegreeComparisonProtocol:
    """Pairwise ``round(ln(deg))`` comparison under the zero-knowledge constraint."""

    def __init__(
        self,
        bit_width: int = 8,
        accountant: Optional[TranscriptAccountant] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self._comparator = SecureComparator(bit_width=bit_width, accountant=self.accountant, rng=rng)

    def compare_degrees(self, left_degree: int, right_degree: int) -> DegreeComparisonOutcome:
        """Compare the log-buckets of two private degrees.

        Only the comparison bit is revealed (Definition 2); the raw degrees
        never leave their owners.
        """
        left_bucket = log_degree_bucket(left_degree)
        right_bucket = log_degree_bucket(right_degree)
        result = self._comparator.compare(left_bucket, right_bucket)
        return DegreeComparisonOutcome(
            left_bucket_ge_right=result.left_ge_right,
            bits_exchanged=result.bits_exchanged,
        )

    def compare_degrees_many(
        self, left_degrees, right_degrees, execute: bool = False
    ) -> BatchComparisonResult:
        """Batched :meth:`compare_degrees` over parallel degree arrays.

        One protocol run per position, evaluated as a single numpy block
        (:meth:`SecureComparator.compare_batch`): outcomes, accountant totals
        and the capped transcript log are identical to the scalar loop, and —
        per the batch RNG contract — nothing is drawn from the shared stream.
        ``execute=True`` (secure construction) runs the vectorised
        millionaires' protocol itself instead of the analytic evaluation.
        """
        return self._comparator.compare_batch(
            log_degree_buckets(left_degrees),
            log_degree_buckets(right_degrees),
            execute=execute,
        )


class WorkloadComparisonProtocol:
    """Secure workload comparisons used by the MCMC balancer (Alg. 2 and 3)."""

    def __init__(
        self,
        bit_width: int = 24,
        accountant: Optional[TranscriptAccountant] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self._comparator = SecureComparator(bit_width=bit_width, accountant=self.accountant, rng=rng)

    def is_local_maximum(self, own_workload: int, neighbor_workloads: Sequence[int]) -> bool:
        """Device operation 1 of Alg. 3: is my workload >= all my neighbours'?"""
        for other in neighbor_workloads:
            if not self._comparator.compare(int(own_workload), int(other)).left_ge_right:
                return False
        return True

    def compare_workloads_many(self, left, right) -> BatchComparisonResult:
        """Batched secure workload comparisons (``left[i] >= right[i]``).

        Runs the vectorised millionaires' protocol
        (:meth:`SecureComparator.compare_batch` with ``execute=True``) so the
        batched secure balancing kernel executes exactly the comparisons the
        per-device loop would, in one numpy block — identical outcomes,
        accountant counters and capped log, and (per the batch RNG contract)
        no draws from the shared stream.
        """
        return self._comparator.compare_batch(left, right, execute=True)

    def argmax(self, workloads: Sequence[int]) -> int:
        """Device operation 2 of Alg. 3: index of the maximum workload."""
        return self._comparator.argmax(workloads)

    def objective_difference(self, objective_before: int, objective_after: int) -> int:
        """Securely compute ``f(X_t) - f(X'_t)`` (Alg. 2 line 7).

        The two maximum-workload devices jointly compute the signed difference
        of their workloads.  Only the difference — which the MH acceptance
        rule needs — is revealed; we account the communication of the
        CrypTFlow2 subtraction circuit (one comparison plus one masked
        exchange of ``bit_width`` bits).
        """
        result = self._comparator.compare(int(objective_before), int(objective_after))
        self.accountant.record("secure-subtraction", self._comparator.bit_width * 2)
        difference = int(objective_before) - int(objective_after)
        # Consistency check between the secure comparison and the difference
        # (both derive from the same private inputs).
        if (difference >= 0) != result.left_ge_right:
            raise RuntimeError("secure comparison disagrees with computed difference")
        return difference


def verify_zero_knowledge_transcript(accountant: TranscriptAccountant) -> bool:
    """Sanity check used by tests: the transcript stores only sizes, not values.

    Returns ``True`` when no logged entry embeds an operand value (entries are
    ``description:bits`` pairs with whitelisted descriptions).
    """
    allowed_prefixes = ("ot", "ot-n", "and-gate", "secure-subtraction")
    return all(entry.split(":")[0] in allowed_prefixes for entry in accountant._log)
