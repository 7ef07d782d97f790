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
  accountant — the resulting assignments are identical, and large
  benchmark graphs stay fast.

Both modes record one Alg. 3 transcript in the ledger: per call, every
device's one-byte candidate announcement, every winner's one-byte maximum
announcement and one ``alg3-comparisons`` row of the comparisons' bytes.

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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..crypto.oblivious_transfer import TranscriptAccountant
from ..crypto.secure_compare import SecureComparator, comparison_cost
from ..federation.events import SERVER_ID, MessageKind
from ..federation.network import constant_column
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


def secure_objective_difference(
    comparator: SecureComparator, objective_before: int, objective_after: int
) -> int:
    """Securely compute ``f(X_t) - f(X'_t)`` (Alg. 2 line 7).

    The two maximum-workload devices jointly compute the signed difference
    of their workloads.  Only the difference — which the MH acceptance rule
    needs — is revealed; the communication charged is that of the
    CrypTFlow2 subtraction circuit: one executed comparison plus one masked
    exchange of ``2 * bit_width`` bits.
    """
    before, after = int(objective_before), int(objective_after)
    result = comparator.compare_batch([before], [after], execute=True)
    comparator.accountant.record("secure-subtraction", comparator.bit_width * 2)
    difference = before - after
    # Both derive from the same private inputs, so they must agree.
    if (difference >= 0) != bool(result.left_ge_right[0]):
        raise RuntimeError("secure comparison disagrees with computed difference")
    return difference


def _segment_positions(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The positions ``starts[i] .. starts[i] + lengths[i] - 1`` of every
    segment side by side, and where each segment begins among them."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum())) + np.repeat(starts - offsets, lengths), offsets


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
        self.workload = assignment.workload_array()
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
        # Columnar transcript buffers: _record_alg3 appends plain ints, and
        # flush_transcript writes them as ledger blocks after the last
        # iteration instead of one ledger call per protocol step.
        self._call_rounds: List[int] = []
        self._comparison_counts: List[int] = []
        self._winner_ids: List[int] = []
        self._winner_rounds: List[int] = []
        # Version-keyed memo of the Alg. 3 evaluation: apply() moves to a
        # fresh version, revert() returns to the previous one, so the first
        # call of an iteration always sees a state some earlier call already
        # evaluated — the candidate scan is skipped while the per-call RNG
        # consumption and transcript charges still happen.
        self._version = 0
        self._next_version = 0
        self._winners_memo: dict = {}
        # The secure path's counterpart: the speculated executed prefixes and
        # comparison pairs (the plaintext bookkeeping only — the protocol
        # itself runs every call), see _speculate.
        self._prefix_memo: dict = {}

    # ------------------------------------------------------------------ #
    # Alg. 3 (incremental candidate/argmax evaluation)
    # ------------------------------------------------------------------ #
    def find_max_workload_device(
        self, accountant: Optional[TranscriptAccountant], round_index: int
    ) -> int:
        """Alg. 3 over the maintained candidate set; O(candidates), not O(edges)."""
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
        comparisons = self.neighbor_comparisons + num_candidates * (num_candidates - 1)
        if accountant is not None:
            _charge_analytic_comparisons(accountant, comparisons)
        return self._record_alg3(round_index, comparisons, winners)

    def find_max_workload_device_secure(
        self, comparator: SecureComparator, round_index: int
    ) -> int:
        """Alg. 3 under the batched secure protocol, speculate-and-verify.

        Executes *exactly* the comparisons the secure reference loop would:
        device ``u`` compares its workload against its neighbours in ego
        order and stops at the first strictly greater one, so the number of
        executed protocol runs is value-dependent.  Which pairs those are is
        speculated in the clear as each device's executed-prefix length,
        kept per ``_version`` (:meth:`_speculate`): the call after
        :meth:`apply` re-derives only the rows the transfer touched.  The
        pairs run through the vectorised millionaires' protocol
        (:meth:`~repro.crypto.secure_compare.SecureComparator.compare_batch`
        with ``execute=True``) on every call, and part 2's candidate argmax
        does the same — giving accountant counters *and* capped log
        entry-for-entry identical to the per-device loop.

        Candidacy is re-derived from the protocol outcomes and checked
        against the speculation and the maintained flags (mirroring the
        reference loop's "secure argmax disagrees" guard).
        """
        workload = self.workload
        n = self.num_devices
        memo = self._prefix_memo.get(self._version)
        if memo is None:
            memo = self._speculate()
        _, candidate, _, owners, own, other = memo
        batch = comparator.compare_batch(own, other, execute=True)
        # Every executed comparison except a non-candidate's last one
        # returns own >= other.
        losses = np.bincount(owners[~batch.left_ge_right], minlength=n)
        if not np.array_equal(losses == 0, candidate) or not np.array_equal(
            candidate, self.candidate
        ):
            raise RuntimeError(
                "secure batched Alg. 3 disagrees with the maintained candidate set"
            )

        candidates = np.flatnonzero(candidate)
        candidate_workloads = workload[candidates]
        if not n:
            # The most-loaded device has no greater neighbour, so only a
            # federation without devices has no candidate; like the clear
            # path, the loop then skips "device 0", which selects nothing.
            candidates = candidate_workloads = np.zeros(1, dtype=np.int64)
        maximum_value = candidate_workloads.max()
        winners = candidates[candidate_workloads == maximum_value].tolist()
        if candidate_workloads[comparator.argmax(candidate_workloads)] != maximum_value:
            raise RuntimeError("secure argmax disagrees with plaintext maximum")
        comparisons = self.neighbor_comparisons + candidates.size * (candidates.size - 1)
        return self._record_alg3(round_index, comparisons, winners)

    def _record_alg3(self, round_index: int, comparisons: int, winners: List[int]) -> int:
        """Buffer one Alg. 3 call's traffic; return the server's pick among ``winners``.

        Both modes record the same transcript: every device announces its
        candidacy (one byte), each winner announces its maximum (one byte),
        and the call's ``comparisons`` are one ``alg3-comparisons`` row.
        """
        self._call_rounds.append(round_index)
        self._comparison_counts.append(comparisons)
        self._winner_ids.extend(winners)
        self._winner_rounds.extend([round_index] * len(winners))
        return self.environment.server.pick_maximum(winners)

    def _speculate(self) -> tuple:
        """Speculate this version's Alg. 3 comparisons; memoise and return them.

        Returns ``(executed, candidate, partners, owners, own, other)``: per
        device the length of the neighbour-row prefix its scan executes and
        its candidacy, then per executed comparison the neighbour and the
        device of the pair and their workloads (the protocol operands).  A
        row's scan reads only its own workload and those of the neighbours
        in its prefix (the first strictly greater one included), so right
        after :meth:`apply` only the rows of the moved vertices and the
        rows whose base prefix holds one of them are rescanned, over the
        proposal's base version; any other miss (the first call, or a state
        no call evaluated) rescans every row.  The flat operands are then
        rebuilt from the prefix lengths.  Only the current version and the
        pending proposal's base stay memoised — the two states the loop can
        return to.
        """
        n = self.num_devices
        base = None
        if self._pending is not None:
            source, targets, _, base_version = self._pending
            base = self._prefix_memo.get(base_version)
        if base is None:
            rows = np.arange(n)
            executed = np.empty(n, dtype=np.int64)
            candidate = np.empty(n, dtype=bool)
            memo = {}
        else:
            executed, candidate, partners, owners = base[:4]
            moved = [source] + targets
            is_moved = np.zeros(n, dtype=bool)
            is_moved[moved] = True
            rows = np.concatenate([moved, owners[is_moved[partners]]])
            executed, candidate = executed.copy(), candidate.copy()
            memo = {base_version: base}
        executed[rows], candidate[rows] = self._scan_prefixes(rows)
        # The edge positions of every device's executed prefix, row by row.
        prefix, _ = _segment_positions(self._csr_indptr[:-1], executed)
        partners = self._csr_indices[prefix]
        owners = np.repeat(np.arange(n), executed)
        # Workloads are non-negative, so the uint64 view is the protocol's
        # operand dtype at no copy.
        workload = self.workload.view(np.uint64)
        result = (executed, candidate, partners, owners, workload[owners], workload[partners])
        memo[self._version] = result
        self._prefix_memo = memo
        return result

    def _scan_prefixes(self, rows) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's executed-prefix length and candidacy, in one segmented pass.

        A device's first strictly greater neighbour is the comparison at
        which its scan stops; a device without one is a candidate and
        compares against its whole row (vacuously so with no neighbours,
        matching the loop).  ``rows`` may repeat.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self._csr_degrees[rows]
        flat, starts = _segment_positions(self._csr_indptr[rows], lengths)
        workload = self.workload
        hits = np.flatnonzero(
            workload[self._csr_indices[flat]] > np.repeat(workload[rows], lengths)
        )
        cuts = np.searchsorted(hits, starts)
        candidate = cuts == np.searchsorted(hits, starts + lengths)
        executed = lengths
        stopped = np.flatnonzero(~candidate)
        executed[stopped] = hits[cuts[stopped]] - starts[stopped] + 1
        return executed, candidate

    def flush_transcript(self) -> None:
        """Emit the buffered Alg. 3 traffic as columnar ledger events.

        The candidate announcements are one block per Alg. 3 call, every
        block's sender column the same read-only ``arange(n)`` and its other
        columns stride-0, so ``k`` calls cost the ledger one ``arange(n)``
        plus O(k), not ``k * n`` rows of columns.
        """
        ledger = self.environment.ledger
        n = self.num_devices
        device_ids = np.arange(n, dtype=np.int64)
        device_ids.flags.writeable = False
        server, one = constant_column(SERVER_ID, n), constant_column(1, n)
        for round_index in self._call_rounds:
            ledger.send_many(
                device_ids, server, MessageKind.SERVER_COORDINATION, one,
                constant_column(round_index, n),
                description="candidate-announcement",
            )
        calls = len(self._call_rounds)
        server = constant_column(SERVER_ID, calls)
        ledger.send_many(
            server, server, MessageKind.SECURE_COMPARISON,
            np.asarray(self._comparison_counts, dtype=np.int64) * 8,
            self._call_rounds,
            description="alg3-comparisons",
        )
        winners = len(self._winner_ids)
        ledger.send_many(
            self._winner_ids,
            constant_column(SERVER_ID, winners),
            MessageKind.SERVER_COORDINATION,
            constant_column(1, winners),
            self._winner_rounds,
            description="maximum-announcement",
        )
        self._call_rounds, self._comparison_counts = [], []
        self._winner_ids, self._winner_rounds = [], []

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
        flat, starts = _segment_positions(self._csr_indptr[rows], lengths)
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
        source, targets = int(source), [int(target) for target in targets]
        old_source_workload = int(self.workload[source])
        record = self.assignment.apply_transfer(source, targets)
        increased = [
            (target, int(self.workload[target]))
            for target, (_, added) in zip(targets, record)
            if added
        ]
        touched = self._update_maxima(increased, [(source, old_source_workload)])
        self._refresh_candidates(
            [source] + [target for target, _ in increased] + touched
        )
        self._pending = (source, targets, record, self._version)
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
        source, targets, record, previous_version = self._pending
        # Pre-undo values of the moved neighbours are the "old" side of the
        # inverse delta; the source's restored workload is its "new" side.
        decreased = [
            (target, int(self.workload[target]))
            for target, (_, added) in zip(targets, record)
            if added
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
        self._comparator = (
            SecureComparator(bit_width=bit_width, accountant=self.accountant) if secure else None
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
        num_devices = self.environment.num_devices
        round_index = ledger.current_round
        # Columnar buffers for the device-to-device traffic of the loop; the
        # same messages environment.exchange would log, flushed as one
        # ``send_many`` block per description after the last iteration.
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
            if self._comparator is not None:
                heaviest = kernel.find_max_workload_device_secure(
                    self._comparator, round_index
                )
            else:
                heaviest = kernel.find_max_workload_device(self.accountant, round_index)
            # Its CSR row masked by the selection: ascending, as Alg. 2 draws
            # from it.  Only a federation without devices has no row.
            source_neighbors = current.kept_neighbors(heaviest) if num_devices else ()
            if not len(source_neighbors):
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
            if self._comparator is not None:
                heaviest_after = kernel.find_max_workload_device_secure(
                    self._comparator, round_index
                )
            else:
                heaviest_after = kernel.find_max_workload_device(
                    self.accountant, round_index
                )

            # Line 7: f(X_t) - f(X'_t); the winner of Alg. 3 attains the
            # maximum, so both objectives are single workload lookups.
            objective_after = int(kernel.workload[heaviest_after])
            if self._comparator is not None:
                difference = secure_objective_difference(
                    self._comparator, objective_before, objective_after
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
                constant_column(8, len(proposal_senders)), proposal_rounds,
                description="mcmc-transition-proposal",
            )
        if objective_senders:
            ledger.send_many(
                objective_senders, objective_recipients, MessageKind.SECURE_COMPARISON,
                constant_column(self.bit_width // 8 or 1, len(objective_senders)),
                objective_rounds,
                description="mcmc-objective-difference",
            )
        if accept_senders:
            ledger.send_many(
                accept_senders, accept_recipients, MessageKind.SERVER_COORDINATION,
                constant_column(8, len(accept_senders)), accept_rounds,
                description="mcmc-accept-notification",
            )
        self.environment.apply_assignment(current.kept)
        return MCMCResult(
            assignment=current,
            objective_history=history,
            accepted_transitions=accepted,
            iterations=self.iterations,
        )
