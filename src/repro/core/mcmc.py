"""MCMC workload balancing (paper Alg. 2 and Alg. 3).

The iterative balancer repeatedly

1. finds the device ``u`` with the largest workload (Alg. 3),
2. lets ``u`` move ``k`` of its selected neighbours to the other endpoint of
   the corresponding edges (the transition of Eq. 16/17, with
   ``k ~ Uniform{1, ..., round(ln |N_u|)}``),
3. finds the most-loaded device of the transited state,
4. accepts or rejects the transition with the Metropolis-Hastings rule of
   Eq. 18: ``P[accept] = min(1, e^{f(X_t) - f(X'_t)})``.

Two execution modes are provided:

* ``secure=True`` runs every workload comparison of Alg. 3 through the
  simulated CrypTFlow2 protocol;
* ``secure=False`` (default) evaluates the comparisons in the clear but
  charges the *same* analytic communication cost to the transcript
  accountant and ledger — the resulting assignments are identical, and large
  benchmark graphs stay fast.

:meth:`MCMCBalancer.run` is the one implementation: the incremental
array-backed kernel (delta workload updates, a maintained candidate set,
columnar transcript; in secure mode a *batched* vectorised-OT Alg. 3, see
:meth:`_IncrementalBalancingKernel.find_max_workload_device_secure`).  Its
oracle — the from-scratch loop that re-derives Alg. 3 every iteration, one
ledger message at a time — lives with the tests (``tests/helpers/oracles.py``);
``tests/test_mcmc_incremental.py`` and ``tests/test_secure_batched.py``
require the two to be bit-for-bit equal in every recorded observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..crypto.oblivious_transfer import TranscriptAccountant
from ..crypto.secure_compare import comparison_cost
from ..crypto.zero_knowledge import WorkloadComparisonProtocol
from ..federation.events import SERVER_ID, MessageKind
from ..federation.simulator import FederatedEnvironment
from .workload import Assignment


@dataclass
class MCMCResult:
    """Outcome of a balancing run."""

    assignment: Assignment
    objective_history: List[int] = field(default_factory=list)
    accepted_transitions: int = 0
    iterations: int = 0

    @property
    def initial_objective(self) -> int:
        return self.objective_history[0] if self.objective_history else 0

    @property
    def final_objective(self) -> int:
        return self.objective_history[-1] if self.objective_history else 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted_transitions / self.iterations if self.iterations else 0.0


def _charge_analytic_comparisons(
    accountant: TranscriptAccountant, count: int, bit_width: int = 24, block_bits: int = 4
) -> None:
    """Add the cost of ``count`` CrypTFlow2 comparisons without running them.

    The per-comparison constants come from the shared
    :func:`repro.crypto.secure_compare.comparison_cost` table (the same source
    the batched greedy kernel charges from), so the analytic and executed
    accountings cannot drift.  Unlike the executed protocols this path leaves
    the capped transcript log untouched (it always has).
    """
    cost = comparison_cost(bit_width, block_bits=block_bits)
    accountant.comparisons += count
    accountant.ot_invocations += count * cost.ot_invocations
    accountant.messages += count * cost.messages
    accountant.bits += count * cost.bits
    obs.add_counter("crypto.comparisons", count)
    obs.add_counter("crypto.ot_invocations", count * cost.ot_invocations)
    obs.add_counter("crypto.messages", count * cost.messages)
    obs.add_counter("crypto.bits", count * cost.bits)


class _IncrementalBalancingKernel:
    """Array-backed incremental state for the balancing loop (clear + secure).

    Holds the flat workload vector, a prebuilt CSR adjacency, and two derived
    arrays maintained by deltas across transitions:

    * ``neighbor_max[w]`` — the largest workload among ``w``'s ego-network
      neighbours (the quantity every device compares itself against in Alg. 3
      device operation 1);
    * ``candidate[w]`` — whether ``w`` currently announces candidacy
      (``workload[w] >= neighbor_max[w]``).

    A k-step transition changes the workloads of at most ``k + 1`` vertices,
    so :meth:`apply` touches only those vertices and their neighbourhoods —
    O(degree of the moved vertices) instead of the O(devices + edges) full
    rescan — and journals every overwritten entry so a rejected proposal is
    reverted exactly.  The candidate set, the winner set, the transcript
    charges and the server tie-breaks are identical to the from-scratch
    evaluation, which is what the seeded equivalence tests pin.
    """

    def __init__(self, environment: FederatedEnvironment, assignment: Assignment) -> None:
        self.environment = environment
        self.assignment = assignment
        n = environment.num_devices
        self.num_devices = n
        self.workload = assignment.workload_vector(n)
        indptr, indices = environment.adjacency_csr()
        # Adjacency as plain python lists: the delta updates below touch a
        # few dozen entries per transition, where scalar list indexing beats
        # numpy fancy-indexing overhead by a wide margin.
        self._neighbors = [
            indices[indptr[v]:indptr[v + 1]].tolist() for v in range(n)
        ]
        # CSR view used by the batched *secure* Alg. 3 path: row ``v`` lists
        # ``v``'s neighbours in ego order (the order the reference loop's
        # early-terminating comparisons follow).
        self._csr_indptr = indptr
        self._csr_indices = indices
        self._csr_degrees = np.diff(indptr)
        # Alg. 3 device operation 1 always evaluates one comparison per
        # directed neighbour relation, whatever the workloads are.
        self.neighbor_comparisons = int(indices.shape[0])
        neighbor_max, neighbor_max_count = self._neighborhood_maxima(np.arange(n))
        # Maintained per-device maximum over the neighbours' workloads, plus
        # its multiplicity: how many neighbours attain it.  A lowered
        # workload then only forces a neighbourhood rescan where the moving
        # device was the *unique* maximum — with the heavy workload ties of
        # a balanced state, most decrements reduce the count and touch
        # nothing else.
        self.neighbor_max = neighbor_max.tolist()
        self.neighbor_max_count = neighbor_max_count.tolist()
        self.candidate = self.workload >= neighbor_max
        self.objective = int(self.workload.max()) if n else 0
        self._pending: Optional[tuple] = None
        # Columnar transcript buffers: the balancing loop appends plain ints
        # here and flushes one BulkMessageEvent per description at the end of
        # the run — identical traffic to the eager reference loop (compare
        # with CommunicationLedger.message_records) without allocating one
        # message object per protocol step.
        self._candidate_rounds: List[int] = []
        self._comparison_rounds: List[int] = []
        self._comparison_counts: List[int] = []
        self._winner_rounds: List[int] = []
        self._winner_counts: List[int] = []
        # Secure-mode buffers (the secure reference path logs per-device
        # candidate announcements and per-winner maximum announcements, not
        # the aggregated clear-mode coordination messages).
        self._secure_announce_rounds: List[int] = []
        self._secure_comparison_rounds: List[int] = []
        self._secure_comparison_counts: List[int] = []
        self._secure_winner_ids: List[int] = []
        self._secure_winner_rounds: List[int] = []
        # Version-keyed memo of the Alg. 3 evaluation: apply() moves to a
        # fresh version, revert() returns to the previous one, so the first
        # call of an iteration always sees a state some earlier call already
        # evaluated — the candidate scan is skipped while the per-call RNG
        # consumption and transcript charges still happen.
        self._version = 0
        self._next_version = 0
        self._winners_memo: dict = {}
        # The secure path's counterpart: the speculated comparison pairs (the
        # plaintext bookkeeping only — the protocol itself runs every call).
        self._prefix_memo: dict = {}

    # ------------------------------------------------------------------ #
    # Alg. 3 (incremental candidate/argmax evaluation)
    # ------------------------------------------------------------------ #
    def find_max_workload_device(
        self, accountant: Optional[TranscriptAccountant], round_index: int
    ) -> int:
        """Alg. 3 over the maintained candidate set; O(candidates), not O(edges)."""
        self._candidate_rounds.append(round_index)
        memo = self._winners_memo.get(self._version)
        if memo is not None:
            winners, num_candidates = memo
        else:
            candidate_indices = np.flatnonzero(self.candidate)
            num_candidates = int(candidate_indices.shape[0])
            if num_candidates:
                candidate_workloads = self.workload[candidate_indices]
                winners = candidate_indices[
                    candidate_workloads == candidate_workloads.max()
                ].tolist()
            else:
                # Only an environment without devices has no candidate; the
                # loop then skips "device 0", which selects nothing.
                num_candidates = 1
                winners = [0]
            if len(self._winners_memo) > 8:
                self._winners_memo.clear()
            self._winners_memo[self._version] = (winners, num_candidates)
        pairwise_comparisons = num_candidates * (num_candidates - 1)
        if accountant is not None:
            _charge_analytic_comparisons(
                accountant, self.neighbor_comparisons + pairwise_comparisons
            )
        self._comparison_rounds.append(round_index)
        self._comparison_counts.append(self.neighbor_comparisons + pairwise_comparisons)
        self._winner_rounds.append(round_index)
        self._winner_counts.append(len(winners))
        return self.environment.server.pick_maximum(winners)

    def find_max_workload_device_secure(
        self, protocol: WorkloadComparisonProtocol, round_index: int
    ) -> int:
        """Alg. 3 under the batched secure protocol, speculate-and-verify.

        Executes *exactly* the comparisons the secure reference loop would:
        device ``u`` compares its workload against its neighbours in ego
        order and stops at the first strictly greater one
        (:meth:`WorkloadComparisonProtocol.is_local_maximum`'s early
        termination), so the number of executed protocol runs is
        value-dependent.  Which pairs those are is speculated in the clear
        (one ``other > own`` pass over the CSR rows, memoised per
        ``_version`` like the clear path's scan); the pairs run through the
        vectorised millionaires' protocol
        (:meth:`WorkloadComparisonProtocol.compare_workloads_many`) on every
        call, and part 2's candidate argmax does the same — giving
        accountant counters *and* capped log entry-for-entry identical to
        the per-device loop.

        Candidacy is re-derived from the protocol outcomes and checked
        against the speculation and the maintained flags (mirroring the
        reference loop's "secure argmax disagrees" guard), and the
        per-device candidate announcements / per-winner maximum
        announcements are buffered for a columnar flush.
        """
        workload = self.workload
        n = self.num_devices
        memo = self._prefix_memo.get(self._version)
        if memo is None:
            indptr, degrees = self._csr_indptr, self._csr_degrees
            other = workload[self._csr_indices]
            # A device's first strictly greater neighbour is the comparison
            # at which is_local_maximum stops; a device without one is a
            # candidate and compares against its whole row (vacuously so
            # with no neighbours, matching the loop).
            hits = np.flatnonzero(other > np.repeat(workload, degrees))
            cuts = np.searchsorted(hits, indptr)
            candidate = cuts[1:] == cuts[:-1]
            stopped = np.flatnonzero(~candidate)
            executed = degrees.copy()
            executed[stopped] = hits[cuts[stopped]] - indptr[stopped] + 1
            # Edge positions of every device's executed prefix, row by row.
            ends = np.cumsum(executed)
            prefix = np.arange(ends[-1]) + np.repeat(indptr[:-1] - (ends - executed), executed)
            memo = (
                np.repeat(workload, executed),
                other[prefix],
                np.repeat(np.arange(n), executed),
                candidate,
            )
            if len(self._prefix_memo) > 8:
                self._prefix_memo.clear()
            self._prefix_memo[self._version] = memo
        own, other, owners, candidate = memo
        batch = protocol.compare_workloads_many(own, other)
        # Every executed comparison except a non-candidate's last one
        # returns own >= other.
        losses = np.bincount(owners[~batch.left_ge_right], minlength=n)
        if not np.array_equal(losses == 0, candidate) or not np.array_equal(
            candidate, self.candidate
        ):
            raise RuntimeError(
                "secure batched Alg. 3 disagrees with the maintained candidate set"
            )

        # The most-loaded device has no greater neighbour, so the verified
        # candidate set is never empty.
        candidates = np.flatnonzero(candidate)
        candidate_workloads = workload[candidates]
        maximum_value = candidate_workloads.max()
        winners = candidates[candidate_workloads == maximum_value].tolist()
        if candidate_workloads[protocol.argmax(candidate_workloads)] != maximum_value:
            raise RuntimeError("secure argmax disagrees with plaintext maximum")
        pairwise_comparisons = candidates.size * (candidates.size - 1)

        self._secure_announce_rounds.append(round_index)
        self._secure_comparison_rounds.append(round_index)
        self._secure_comparison_counts.append(
            self.neighbor_comparisons + pairwise_comparisons
        )
        self._secure_winner_ids.extend(winners)
        self._secure_winner_rounds.extend([round_index] * len(winners))
        return self.environment.server.pick_maximum(winners)

    def flush_transcript(self) -> None:
        """Emit the buffered Alg. 3 traffic as columnar ledger events."""
        ledger = self.environment.ledger
        if self._candidate_rounds:
            calls = len(self._candidate_rounds)
            server = np.full(calls, SERVER_ID, dtype=np.int64)
            ledger.send_many(
                server, server, MessageKind.SERVER_COORDINATION,
                np.full(calls, self.num_devices, dtype=np.int64),
                self._candidate_rounds,
                description="alg3-candidate-announcements",
            )
            ledger.send_many(
                server, server, MessageKind.SECURE_COMPARISON,
                np.asarray(self._comparison_counts, dtype=np.int64) * 8,
                self._comparison_rounds,
                description="alg3-comparisons",
            )
            ledger.send_many(
                server, server, MessageKind.SERVER_COORDINATION,
                self._winner_counts,
                self._winner_rounds,
                description="alg3-maximum-announcements",
            )
        if self._secure_announce_rounds:
            calls = len(self._secure_announce_rounds)
            device_ids = np.arange(self.num_devices, dtype=np.int64)
            announce_senders = np.tile(device_ids, calls)
            announce_rounds = np.repeat(
                np.asarray(self._secure_announce_rounds, dtype=np.int64),
                self.num_devices,
            )
            ledger.send_many(
                announce_senders,
                np.full(announce_senders.shape[0], SERVER_ID, dtype=np.int64),
                MessageKind.SERVER_COORDINATION,
                np.ones(announce_senders.shape[0], dtype=np.int64),
                announce_rounds,
                description="candidate-announcement",
            )
            server = np.full(calls, SERVER_ID, dtype=np.int64)
            ledger.send_many(
                server, server, MessageKind.SECURE_COMPARISON,
                np.asarray(self._secure_comparison_counts, dtype=np.int64) * 8,
                self._secure_comparison_rounds,
                description="alg3-comparisons",
            )
        if self._secure_winner_ids:
            winner_senders = np.asarray(self._secure_winner_ids, dtype=np.int64)
            ledger.send_many(
                winner_senders,
                np.full(winner_senders.shape[0], SERVER_ID, dtype=np.int64),
                MessageKind.SERVER_COORDINATION,
                np.ones(winner_senders.shape[0], dtype=np.int64),
                self._secure_winner_rounds,
                description="maximum-announcement",
            )
        self._candidate_rounds = []
        self._comparison_rounds = []
        self._comparison_counts = []
        self._winner_rounds = []
        self._winner_counts = []
        self._secure_announce_rounds = []
        self._secure_comparison_rounds = []
        self._secure_comparison_counts = []
        self._secure_winner_ids = []
        self._secure_winner_rounds = []

    # ------------------------------------------------------------------ #
    # Transitions (Eq. 17) as journaled delta updates
    # ------------------------------------------------------------------ #
    def _update_maxima(self, increased: List[tuple], decreased: List[tuple]) -> List[int]:
        """Propagate workload deltas into ``neighbor_max`` / its multiplicity.

        ``increased`` holds ``(vertex, new_value)`` pairs, ``decreased`` holds
        ``(vertex, old_value)`` pairs; the workload vector itself must already
        carry the new values.  Decrements run in two phases (count first, then
        rescan the neighbourhoods whose count reached zero) so that several
        simultaneous decrements around one vertex each retire exactly one
        attainment of the *old* maximum.  Returns the vertices whose maximum
        (not merely its multiplicity) changed.
        """
        neighbors = self._neighbors
        neighbor_max = self.neighbor_max
        neighbor_max_count = self.neighbor_max_count
        touched: List[int] = []

        # Raised workloads can only raise (or join) the maxima around them.
        for vertex, new_value in increased:
            for w in neighbors[vertex]:
                maximum = neighbor_max[w]
                if maximum < new_value:
                    neighbor_max[w] = new_value
                    neighbor_max_count[w] = 1
                    touched.append(w)
                elif maximum == new_value:
                    neighbor_max_count[w] += 1

        # A lowered workload retires one attainment wherever the vertex was
        # at the (old) maximum; only neighbourhoods left with no attainment
        # are rescanned — with the heavy workload ties of a balanced state,
        # most decrements stop at the count.  With a single lowered vertex
        # (every apply) the rescan can run inline; several simultaneous
        # decrements (revert of a k-step move) must retire all attainments
        # of the old maxima before any rescan, hence the two-phase branch.
        if len(decreased) == 1:
            vertex, old_value = decreased[0]
            rescan = []
            for w in neighbors[vertex]:
                if neighbor_max[w] == old_value:
                    count = neighbor_max_count[w]
                    if count > 1:
                        neighbor_max_count[w] = count - 1
                    else:
                        rescan.append(w)
        else:
            marked: List[int] = []
            for vertex, old_value in decreased:
                for w in neighbors[vertex]:
                    if neighbor_max[w] == old_value:
                        neighbor_max_count[w] -= 1
                        marked.append(w)
            rescan = [w for w in marked if neighbor_max_count[w] == 0]
        if rescan:
            maxima, attained = self._neighborhood_maxima(rescan)
            for w, maximum, count in zip(rescan, maxima.tolist(), attained.tolist()):
                neighbor_max[w] = maximum
                neighbor_max_count[w] = count
            touched.extend(rescan)
        return touched

    def _neighborhood_maxima(self, vertices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Largest workload among each vertex's neighbours, and how many attain it.

        One segmented pass over the CSR rows of all ``vertices`` (repeats
        allowed): their neighbours' workloads side by side, then
        ``maximum.reduceat`` / ``add.reduceat`` per row.  An empty row reads
        ``(0, 0)`` and holds no segment — ``reduceat`` has no identity for it.
        """
        rows = np.asarray(vertices, dtype=np.int64)
        lengths = self._csr_degrees[rows]
        starts = np.cumsum(lengths) - lengths
        flat = np.arange(int(lengths.sum())) + np.repeat(self._csr_indptr[rows] - starts, lengths)
        values = self.workload[self._csr_indices[flat]]
        occupied = lengths > 0
        maxima = np.zeros(rows.shape[0], dtype=np.int64)
        attained = np.zeros(rows.shape[0], dtype=np.int64)
        maxima[occupied] = np.maximum.reduceat(values, starts[occupied])
        attained[occupied] = np.add.reduceat(
            values == np.repeat(maxima, lengths), starts[occupied]
        )
        return maxima, attained

    def _refresh_candidates(self, vertices: List[int]) -> None:
        """Re-evaluate candidacy where a workload or a maximum changed."""
        workload = self.workload
        neighbor_max = self.neighbor_max
        candidate = self.candidate
        for w in vertices:
            candidate[w] = workload[w] >= neighbor_max[w]

    def apply(self, source: int, targets: List[int]) -> None:
        """Apply the transition in place; O(degree of the moved vertices)."""
        if self._pending is not None:
            raise RuntimeError("a proposal is already pending")
        source = int(source)
        old_source_workload = int(self.workload[source])
        record = self.assignment.apply_transfer(source, targets)
        increased = [
            (target, int(self.workload[target])) for target, added in record if added
        ]
        touched = self._update_maxima(increased, [(source, old_source_workload)])
        self._refresh_candidates(
            [source] + [target for target, _ in increased] + touched
        )
        self._pending = (source, record, self._version)
        self._next_version += 1
        self._version = self._next_version

    def commit(self, objective_after: int) -> None:
        """Accept the pending proposal (the deltas simply stay applied)."""
        self._pending = None
        self.objective = int(objective_after)

    def revert(self) -> None:
        """Reject the pending proposal by applying the inverse delta."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to revert")
        source, record, previous_version = self._pending
        # Pre-undo values of the moved neighbours are the "old" side of the
        # inverse delta; the source's restored workload is its "new" side.
        decreased = [
            (target, int(self.workload[target])) for target, added in record if added
        ]
        self.assignment.undo_transfer(source, record)
        touched = self._update_maxima(
            [(source, int(self.workload[source]))], decreased
        )
        self._refresh_candidates(
            [source] + [target for target, _ in decreased] + touched
        )
        self._version = previous_version
        self._pending = None


class MCMCBalancer:
    """Runs Alg. 2 on a federated environment.

    :meth:`run` drives the array-backed delta kernel.  In secure mode the
    kernel runs Alg. 3 through the batched vectorised-OT protocol
    simulation, charging transcripts identical to the early-terminating
    per-device loop.
    """

    def __init__(
        self,
        environment: FederatedEnvironment,
        iterations: int,
        accountant: Optional[TranscriptAccountant] = None,
        bit_width: int = 24,
        secure: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        self.environment = environment
        self.iterations = iterations
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self.secure = secure
        self.bit_width = bit_width
        self.rng = rng if rng is not None else environment.rng
        self._protocol = (
            WorkloadComparisonProtocol(bit_width=bit_width, accountant=self.accountant, rng=self.rng)
            if secure
            else None
        )

    # ------------------------------------------------------------------ #
    # Alg. 2
    # ------------------------------------------------------------------ #
    def run(self, initial: Assignment) -> MCMCResult:
        """Execute the MCMC iterations starting from ``initial``."""
        current = initial.copy()
        kernel = _IncrementalBalancingKernel(self.environment, current)
        history = [kernel.objective]
        accepted = 0
        ledger = self.environment.ledger
        rng = self.rng
        round_index = ledger.current_round
        # Columnar buffers for the device-to-device traffic of the loop; the
        # same messages environment.exchange would log, flushed as bulk
        # events after the last iteration.
        proposal_senders: List[int] = []
        proposal_recipients: List[int] = []
        proposal_rounds: List[int] = []
        objective_senders: List[int] = []
        objective_recipients: List[int] = []
        objective_rounds: List[int] = []
        accept_senders: List[int] = []
        accept_recipients: List[int] = []
        accept_rounds: List[int] = []

        for iteration in range(self.iterations):
            # Line 2: device with the largest workload under X_t.
            if self._protocol is not None:
                heaviest = kernel.find_max_workload_device_secure(
                    self._protocol, round_index
                )
            else:
                heaviest = kernel.find_max_workload_device(self.accountant, round_index)
            source_neighbors = sorted(current.selected.get(heaviest, set()))
            if not source_neighbors:
                # The reference loop `continue`s past its next_round() too,
                # so the round counter must not advance on this branch.
                history.append(kernel.objective)
                continue

            # Lines 3-4: sample the step size k and the k neighbours to move.
            step_limit = max(1, int(round(math.log(len(source_neighbors)))) or 1)
            step = int(rng.integers(1, step_limit + 1))
            step = min(step, len(source_neighbors))
            chosen = rng.choice(source_neighbors, size=step, replace=False)
            targets = [int(v) for v in chosen]

            # Line 5: form X'_t in place (O(k) delta, revertible).
            objective_before = kernel.objective
            kernel.apply(heaviest, targets)
            for target in targets:
                proposal_senders.append(heaviest)
                proposal_recipients.append(target)
                proposal_rounds.append(round_index)

            # Line 6: device with the largest workload under X'_t.
            if self._protocol is not None:
                heaviest_after = kernel.find_max_workload_device_secure(
                    self._protocol, round_index
                )
            else:
                heaviest_after = kernel.find_max_workload_device(
                    self.accountant, round_index
                )

            # Line 7: f(X_t) - f(X'_t); the winner of Alg. 3 attains the
            # maximum, so both objectives are single workload lookups.
            objective_after = int(kernel.workload[heaviest_after])
            if self._protocol is not None:
                difference = self._protocol.objective_difference(
                    objective_before, objective_after
                )
            else:
                difference = objective_before - objective_after
                _charge_analytic_comparisons(self.accountant, 1, bit_width=self.bit_width)
            objective_senders.append(heaviest)
            objective_recipients.append(heaviest_after)
            objective_rounds.append(round_index)

            # Line 8: Metropolis-Hastings acceptance (Eq. 18).
            acceptance_probability = min(1.0, math.exp(min(difference, 50)))
            if rng.random() < acceptance_probability:
                kernel.commit(objective_after)
                accepted += 1
                # Line 9: the source device informs the moved neighbours.
                for target in targets:
                    accept_senders.append(heaviest)
                    accept_recipients.append(target)
                    accept_rounds.append(round_index)
            else:
                kernel.revert()
            history.append(kernel.objective)
            round_index += 1

        ledger.current_round = round_index
        kernel.flush_transcript()
        if proposal_senders:
            ledger.send_many(
                proposal_senders, proposal_recipients, MessageKind.SERVER_COORDINATION,
                np.full(len(proposal_senders), 8, dtype=np.int64), proposal_rounds,
                description="mcmc-transition-proposal",
            )
        if objective_senders:
            ledger.send_many(
                objective_senders, objective_recipients, MessageKind.SECURE_COMPARISON,
                np.full(
                    len(objective_senders), self.bit_width // 8 or 1, dtype=np.int64
                ),
                objective_rounds,
                description="mcmc-objective-difference",
            )
        if accept_senders:
            ledger.send_many(
                accept_senders, accept_recipients, MessageKind.SERVER_COORDINATION,
                np.full(len(accept_senders), 8, dtype=np.int64), accept_rounds,
                description="mcmc-accept-notification",
            )
        self.environment.apply_assignment(current.selected)
        return MCMCResult(
            assignment=current,
            objective_history=history,
            accepted_transitions=accepted,
            iterations=self.iterations,
        )

# --------------------------------------------------------------------------- #
# Localized rebalance (tree maintenance)
# --------------------------------------------------------------------------- #
def localized_rebalance(
    assignment: Assignment,
    region: Sequence[int],
    iterations: int,
    rng: np.random.Generator,
    accountant: Optional[TranscriptAccountant] = None,
    bit_width: int = 24,
) -> Dict[str, int]:
    """Alg. 2 restricted to ``region``, in place, via the O(k) deltas.

    The maintenance layer calls this after churn has perturbed a constructed
    tree: instead of re-running the global balancer, only the devices in
    ``region`` (typically the heaviest device and its ego neighbourhood)
    participate.  Each iteration mirrors one step of the incremental loop —
    region-local argmax, ``k ~ Uniform{1, ..., round(ln |targets|)}`` sampled
    targets, Metropolis-Hastings acceptance — but both the argmax and the
    objective are evaluated over ``region`` only, so one iteration costs
    O(|region| + k) regardless of federation size.

    Mutates ``assignment`` through :meth:`Assignment.apply_transfer` /
    :meth:`Assignment.undo_transfer` (never touching the private workload
    vector) and charges the analytic comparison cost to ``accountant``.
    Returns deterministic counters (``accepted`` transitions, neighbour
    ``moves``, ``comparisons`` charged) for the caller's ledger entry.
    """
    region_set = {int(v) for v in region} & set(assignment.selected)
    region_ids = sorted(region_set)
    accepted = 0
    moves = 0
    comparisons = 0
    for _ in range(iterations):
        if not region_ids:
            break
        # Region-local Alg. 3: argmax workload, smallest id on ties.
        heaviest, objective_before = region_ids[0], -1
        for vertex in region_ids:
            workload = len(assignment.selected.get(vertex, ()))
            if workload > objective_before:
                heaviest, objective_before = vertex, workload
        comparisons += max(len(region_ids) - 1, 0)
        # Only region members may receive load: with targets outside the
        # region the *local* objective could "improve" by piling work onto
        # devices this rebalance never re-examines.
        targets_pool = sorted(
            v for v in assignment.selected.get(heaviest, ()) if v in region_set
        )
        if not targets_pool:
            break  # the whole region is workload-free; nothing to move
        step_limit = max(1, int(round(math.log(len(targets_pool)))) or 1)
        step = min(int(rng.integers(1, step_limit + 1)), len(targets_pool))
        chosen = rng.choice(targets_pool, size=step, replace=False)
        targets = [int(v) for v in np.atleast_1d(chosen)]

        record = assignment.apply_transfer(heaviest, targets)
        objective_after = max(
            len(assignment.selected.get(vertex, ())) for vertex in region_ids
        )
        comparisons += 1  # the objective-difference comparison
        difference = objective_before - objective_after
        if rng.random() < min(1.0, math.exp(min(difference, 50))):
            accepted += 1
            moves += len(targets)
        else:
            assignment.undo_transfer(heaviest, record)
    if accountant is not None and comparisons:
        _charge_analytic_comparisons(accountant, comparisons, bit_width=bit_width)
    return {"accepted": accepted, "moves": moves, "comparisons": comparisons}
