"""MCMC workload balancing (paper Alg. 2 and Alg. 3).

The iterative balancer repeatedly

1. finds the device ``u`` with the largest workload (Alg. 3),
2. lets ``u`` move ``k`` of its selected neighbours to the other endpoint of
   the corresponding edges (the transition of Eq. 16/17, with
   ``k ~ Uniform{1, ..., round(ln |N_u|)}``),
3. finds the most-loaded device of the transited state,
4. accepts or rejects the transition with the Metropolis-Hastings rule of
   Eq. 18: ``P[accept] = min(1, e^{f(X_t) - f(X'_t)})``.

Two execution modes are provided, on one kernel that finds Alg. 3's
candidates by the same prefix scan:

* ``secure=True`` runs Alg. 3's workload comparisons through the simulated
  CrypTFlow2 protocol, and the accountant counts the executed comparisons.
  An outcome is stored at its CSR position and reused until a transfer
  moves one of its two devices (invalidated when the transfer is proposed
  and again after it is accepted or rejected, so the reuse pattern does
  not reveal the decision), and a call executes only the scanned
  comparisons made stale since the last call;
* ``secure=False`` (default) charges the accountant the analytic count of
  Alg. 3 (``E + c(c - 1)`` comparisons per call) at the balancer's bit
  width, without running the protocol.

Both modes make the same selection and record the same ledger transcript:
per Alg. 3 call, every device's one-byte candidate announcement, every
winner's one-byte maximum announcement and one ``alg3-comparisons`` row of
the analytic comparisons' bytes.  Their accountants differ: the analytic
count is never below the executed one, because a device's executed scan
stops at its first strictly greater neighbour and reuses stored outcomes.

:meth:`MCMCBalancer.run` is the one implementation: the incremental
array-backed kernel (workloads updated by the transfers, Alg. 3's scan
memoised per kernel version and rescanned only where a transfer touched
it, columnar transcript; see :class:`_IncrementalBalancingKernel`).  Its
oracle, the from-scratch loop that re-derives Alg. 3 every iteration, one
ledger message at a time, lives with the tests (``tests/helpers/oracles.py``);
``tests/test_mcmc_incremental.py`` and ``tests/test_secure_batched.py``
require the two to be bit-for-bit equal in every recorded observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..crypto.oblivious_transfer import TranscriptAccountant
from ..crypto.secure_compare import (
    SecureComparator,
    argmax_from_outcomes,
    argmax_pairs,
    comparison_cost,
)
from ..faults.config import _check_integer
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

    Holds the assignment, whose workload vector the transfers update in
    place, and the environment's CSR.  Alg. 3 device operation 1 is one
    prefix scan: device ``u`` compares its workload with its neighbours in
    ego order and stops at the first strictly greater one, so it executes
    a prefix of its row and is a candidate when the prefix is the whole
    row.  The scan's result is memoised per kernel version, and after
    :meth:`apply` only the rows the transfer touched are rescanned.  Clear
    and secure mode share that scan and differ only in what they charge:
    the analytic count to the accountant, or the executed comparisons
    through ``comparator``.  Secure mode alone keeps an outcome cache over
    CSR positions (see :meth:`_execute`), which :meth:`apply` invalidates
    and :meth:`commit` and :meth:`revert` invalidate again.
    """

    def __init__(
        self,
        environment: FederatedEnvironment,
        assignment: Assignment,
        accountant: Optional[TranscriptAccountant] = None,
        comparator: Optional[SecureComparator] = None,
        bit_width: int = 24,
    ) -> None:
        self.environment = environment
        self.assignment = assignment
        self.accountant = accountant
        self.comparator = comparator
        self.bit_width = bit_width
        n = environment.num_devices
        self.num_devices = n
        self.workload = assignment.workload_array()
        self._indptr, self._indices = environment.adjacency_csr()
        self._degrees = np.diff(self._indptr)
        # Alg. 3's analytic count charges one comparison per directed
        # neighbour relation, whatever the workloads are.
        self.neighbor_comparisons = int(self._indices.shape[0])
        self.objective = int(self.workload.max()) if n else 0
        self._pending: Optional[tuple] = None
        # Columnar transcript buffers: _record_alg3 appends plain ints, and
        # flush_transcript writes them as ledger blocks after the last
        # iteration instead of one ledger call per protocol step.
        self._call_rounds: List[int] = []
        self._comparison_counts: List[int] = []
        self._winner_ids: List[int] = []
        self._winner_rounds: List[int] = []
        # apply() moves to a fresh version and revert() returns to the
        # previous one, so every call but the first sees a state whose scan
        # is memoised or one transfer away from it (see _scan).
        self._version = 0
        self._next_version = 0
        self._memo: dict = {}
        if comparator is not None:
            # Secure mode's outcome cache over CSR positions: the bit the
            # comparison at each position last returned and whether it still
            # holds, plus the rows a transfer invalidated since the last call.
            size = self._indices.shape[0]
            self._outcomes = np.zeros(size, dtype=bool)
            self._stored = np.zeros(size, dtype=bool)
            self._stale_rows = np.ones(n, dtype=bool)

    # ------------------------------------------------------------------ #
    # Alg. 3
    # ------------------------------------------------------------------ #
    def find_max_workload_device(self, round_index: int) -> int:
        """Alg. 3 over this version's prefix scan.

        Clear mode charges the analytic ``E + c(c - 1)`` comparisons.
        Secure mode executes exactly the comparisons the per-device loop
        with the same outcome cache would (:meth:`_execute`), so the
        accountant counters and capped log match it entry for entry.  Both
        modes record the same ledger transcript, with the analytic count,
        and return the same device.
        """
        executed, candidate, winners, num_candidates = self._scan()
        comparisons = self.neighbor_comparisons + num_candidates * (num_candidates - 1)
        if self.comparator is not None:
            self._execute(executed, candidate)
        elif self.accountant is not None:
            _charge_analytic_comparisons(self.accountant, comparisons, bit_width=self.bit_width)
        return self._record_alg3(round_index, comparisons, winners)

    def _scan(self) -> tuple:
        """This version's ``(executed, candidate, winners, num_candidates)``.

        ``executed[u]`` is the length of the row prefix ``u``'s scan
        compares against and ``candidate[u]`` whether ``u`` announces
        candidacy; ``winners`` are the candidates of maximum workload.  A
        row's scan reads only its own workload and those of its prefix, so
        right after :meth:`apply` only the moved vertices' rows and the
        rows whose base prefix holds one of them are rescanned: for ``p``
        in a moved ``v``'s row, the neighbour ``w = indices[p]`` holds
        ``v`` at ``reverse[p] - indptr[w]``.  Any other miss (the first
        call, or a state no call evaluated) rescans every row.  Only this
        version and the pending proposal's base stay memoised, the two
        states the loop can return to.
        """
        memo = self._memo.get(self._version)
        if memo is not None:
            return memo
        n = self.num_devices
        base = None
        if self._pending is not None:
            source, targets, _, base_version = self._pending
            base = self._memo.get(base_version)
        if base is None:
            rows = np.arange(n)
            executed = np.empty(n, dtype=np.int64)
            candidate = np.empty(n, dtype=bool)
            kept = {}
        else:
            executed, candidate = base[0].copy(), base[1].copy()
            moved = np.asarray([source] + targets, dtype=np.int64)
            positions, _ = _segment_positions(self._indptr[moved], self._degrees[moved])
            holders = self._indices[positions]
            reverse = self.assignment._reverse_positions()[positions]
            held = reverse - self._indptr[holders] < executed[holders]
            rows = np.concatenate([moved, holders[held]])
            kept = {base_version: base}
        executed[rows], candidate[rows] = self._scan_prefixes(rows)
        candidates = np.flatnonzero(candidate)
        if candidates.size:
            loads = self.workload[candidates]
            winners = candidates[loads == loads.max()].tolist()
        else:
            # Only a federation without devices has no candidate; the loop
            # then skips "device 0", which selects nothing.
            winners = [0]
        memo = (executed, candidate, winners, max(int(candidates.size), 1))
        kept[self._version] = memo
        self._memo = kept
        return memo

    def _scan_prefixes(self, rows) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's executed-prefix length and candidacy, in one segmented pass.

        A device's first strictly greater neighbour is the comparison at
        which its scan stops; a device without one is a candidate and
        compares against its whole row (vacuously so with no neighbours,
        matching the loop).  ``rows`` may repeat.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self._degrees[rows]
        flat, starts = _segment_positions(self._indptr[rows], lengths)
        workload = self.workload
        hits = np.flatnonzero(
            workload[self._indices[flat]] > np.repeat(workload[rows], lengths)
        )
        cuts = np.searchsorted(hits, starts)
        candidate = cuts == np.searchsorted(hits, starts + lengths)
        executed = lengths
        stopped = np.flatnonzero(~candidate)
        executed[stopped] = hits[cuts[stopped]] - starts[stopped] + 1
        return executed, candidate

    def _execute(self, executed: np.ndarray, candidate: np.ndarray) -> None:
        """Run the scanned comparisons and the candidates' argmax securely.

        A comparison's outcome is a function of its two workloads, and a
        transfer changes only the moved vertices' workloads, so the kernel
        stores each executed outcome at its CSR position until a transfer
        invalidates it (:meth:`_invalidate`).  Only the rows invalidated
        since the last call can hold a stale position in their prefix or
        a changed prefix, so only their prefixes are read: the stale
        positions in them are executed, and every other outcome is reused
        (counted by the ``crypto.comparisons_reused`` counter).  Part 2's
        argmax chain (:func:`~repro.crypto.secure_compare.argmax_pairs`)
        rides in the same executed batch of the vectorised millionaires'
        protocol; every comparison is charged the same pattern, so one
        batch charges what the two would.  Every outcome of the read rows,
        stored or fresh, is checked against the scan (every comparison but
        a non-candidate's last one returns ``own >= other``), and the
        argmax re-derived from its outcomes must attain the maximum.
        """
        rows = np.flatnonzero(self._stale_rows)
        self._stale_rows[rows] = False
        lengths = executed[rows]
        positions, _ = _segment_positions(self._indptr[rows], lengths)
        missing = ~self._stored[positions]
        stale = positions[missing]
        # Workloads are non-negative, so the uint64 view is the protocol's
        # operand dtype at no copy.  A federation without devices compares
        # its one "device 0".
        workload = self.workload.view(np.uint64)
        candidate_workloads = workload[candidate] if self.num_devices else np.zeros(1, np.uint64)
        chain_left, chain_right = argmax_pairs(candidate_workloads)
        outcomes = self.comparator.compare_batch(
            np.concatenate([workload[np.repeat(rows, lengths)[missing]], chain_left]),
            np.concatenate([workload[self._indices[stale]], chain_right]),
            execute=True,
        ).left_ge_right
        self._outcomes[stale] = outcomes[: stale.size]
        self._stored[stale] = True
        obs.add_counter("crypto.comparisons_reused", int(executed.sum()) - stale.size)
        losses = np.bincount(
            np.repeat(np.arange(rows.size), lengths)[~self._outcomes[positions]],
            minlength=rows.size,
        )
        if not np.array_equal(losses == 0, candidate[rows]):
            raise RuntimeError("secure batched Alg. 3 disagrees with the prefix scan")
        winner = argmax_from_outcomes(candidate_workloads, outcomes[stale.size :])
        if candidate_workloads[winner] != candidate_workloads.max():
            raise RuntimeError("secure argmax disagrees with plaintext maximum")

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
    # Transitions (Eq. 17)
    # ------------------------------------------------------------------ #
    def apply(self, source: int, targets: List[int]) -> None:
        """Apply the transition in place, in O(k), as a fresh version.

        Secure mode also invalidates the moved rows' stored outcomes, in
        O(degree of the moved vertices).
        """
        if self._pending is not None:
            raise RuntimeError("a proposal is already pending")
        record = self.assignment.apply_transfer(source, targets)
        source, targets = int(source), [int(target) for target in targets]
        self._pending = (source, targets, record, self._version)
        self._next_version += 1
        self._version = self._next_version
        self._invalidate(source, targets)

    def commit(self, objective_after: int) -> None:
        """Accept the pending proposal: the transfer stays applied.

        Secure mode invalidates the moved rows again, as :meth:`revert`
        does, so which comparisons the next call executes does not depend
        on the Metropolis-Hastings decision.
        """
        if self._pending is None:
            raise RuntimeError("no pending proposal to commit")
        source, targets = self._pending[:2]
        self._pending = None
        self.objective = int(objective_after)
        self._invalidate(source, targets)

    def revert(self) -> None:
        """Reject the pending proposal: undo its transfer, back to its base version."""
        if self._pending is None:
            raise RuntimeError("no pending proposal to revert")
        source, targets, record, self._version = self._pending
        self.assignment.undo_transfer(source, record)
        self._pending = None
        self._invalidate(source, targets)

    def _invalidate(self, source: int, targets: List[int]) -> None:
        """Secure mode: drop the stored outcomes a transfer made stale.

        The moved vertices' workloads changed, so every comparison they
        take part in is stale: the positions of their rows and the reverse
        positions that point into them, which lie in the neighbours' rows.
        """
        if self.comparator is None:
            return
        moved = np.asarray([source] + targets, dtype=np.int64)
        positions, _ = _segment_positions(self._indptr[moved], self._degrees[moved])
        self._stored[positions] = False
        self._stored[self.assignment._reverse_positions()[positions]] = False
        self._stale_rows[moved] = True
        self._stale_rows[self._indices[positions]] = True


class MCMCBalancer:
    """Runs Alg. 2 on a federated environment.

    :meth:`run` drives the array-backed incremental kernel.  In secure mode
    the kernel executes Alg. 3's comparisons through the batched
    vectorised-OT protocol simulation, charging transcripts identical to
    the early-terminating per-device loop that reuses the outcomes no
    transfer made stale.
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
        self.iterations = iterations
        self.bit_width = bit_width
        # The configs' integer rule, in both modes: secure mode's comparator
        # would refuse a width outside [1, 64], and clear mode must not charge
        # comparisons at it either.
        _check_integer(self, "iterations", 0)
        _check_integer(self, "bit_width", 1, 64)
        self.environment = environment
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self.secure = secure
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
        kernel = _IncrementalBalancingKernel(
            self.environment, current, self.accountant, self._comparator, self.bit_width
        )
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
            heaviest = kernel.find_max_workload_device(round_index)
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
            heaviest_after = kernel.find_max_workload_device(round_index)

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
