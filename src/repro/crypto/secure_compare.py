"""Secure 2-party integer comparison (simulated CrypTFlow2 millionaires').

Lumos compares node degrees (greedy initialisation, Alg. 1) and workloads
(MCMC iteration, Alg. 2/3) without revealing the values themselves: the two
devices run a millionaires'-protocol instance and learn *only* the comparison
bit.  CrypTFlow2 (Rathee et al., CCS 2020) realises this with a recursive
block decomposition over 1-out-of-2^m OTs with complexity ``O(L log L)`` for
``L``-bit inputs.

This module simulates that protocol at the message level:

* :class:`SecureComparator.compare` decomposes both inputs into 4-bit blocks,
  evaluates per-block equality/greater-than shares through the simulated OT
  channel, and combines them with a logarithmic tree — so the *communication
  pattern and cost* mirror the real protocol; and
* the public API returns only the boolean result, never the operand of the
  other party, which is what the rest of the system relies on (Definition 2,
  zero-knowledge degree comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from .oblivious_transfer import ObliviousTransfer, TranscriptAccountant


@dataclass(frozen=True)
class ComparisonResult:
    """Public outcome of a secure comparison between two private integers."""

    left_ge_right: bool
    bits_exchanged: int
    ot_invocations: int

    @property
    def left_lt_right(self) -> bool:
        return not self.left_ge_right


@dataclass(frozen=True)
class ComparisonCost:
    """Analytic per-comparison cost of the CrypTFlow2 block protocol.

    The block protocol's communication depends only on the bit width — never
    on the operand values — so one comparison's transcript is a fixed pattern
    of messages.  ``pattern`` is the exact ``(description, bits)`` sequence
    :meth:`SecureComparator.compare` records: ``2 * num_blocks`` 1-out-of-2^m
    OTs followed by ``num_blocks - 1`` AND-gate rounds.  The batched kernels
    (and the MCMC balancer's analytic charger) derive their accounting from
    this single source so the two paths cannot drift.
    """

    bit_width: int
    block_bits: int
    num_blocks: int
    ot_invocations: int
    messages: int
    bits: int
    pattern: Tuple[Tuple[str, int], ...]


@lru_cache(maxsize=None)
def comparison_cost(
    bit_width: int, block_bits: int = 4, message_bits: int = 1
) -> ComparisonCost:
    """Return the (constant) transcript cost of one ``bit_width`` comparison."""
    num_blocks = (bit_width + block_bits - 1) // block_bits
    ot_bits = (1 << block_bits) * message_bits + 128
    pattern = (("ot-n", ot_bits),) * (2 * num_blocks) + (
        ("and-gate", 2 * block_bits),
    ) * max(num_blocks - 1, 0)
    return ComparisonCost(
        bit_width=bit_width,
        block_bits=block_bits,
        num_blocks=num_blocks,
        ot_invocations=2 * num_blocks,
        messages=len(pattern),
        bits=sum(bits for _, bits in pattern),
        pattern=pattern,
    )


def operand_array(values, name: str, bit_width: int) -> np.ndarray:
    """Validate a batch operand and return it as uint64 (protocol dtype).

    uint64 is what lets ``bit_width=64`` operands (up to ``2**64 - 1``)
    flow through the batch kernels; int64 inputs are range-checked before
    the widening cast so negatives fail loudly instead of wrapping.  Shared
    by the in-process :class:`SecureComparator` and the two-party transport
    driver (:mod:`repro.crypto.transport`) so both paths accept exactly the
    same operands.
    """
    array = np.asarray(values)
    if array.dtype != np.uint64:
        try:
            array = np.asarray(values, dtype=np.int64)
        except OverflowError:
            # Python ints above 2**63 - 1 (legal under bit_width=64)
            # only fit the unsigned dtype; negatives raise here too.
            array = np.asarray(values, dtype=np.uint64)
    if array.size:
        if array.dtype != np.uint64 and int(array.min()) < 0:
            raise ValueError(f"{name} must be non-negative")
        if bit_width < 64 and int(array.max()) >= (1 << bit_width):
            raise ValueError(f"{name} does not fit in {bit_width} bits")
    return array.astype(np.uint64, copy=False)


@dataclass(frozen=True)
class BatchComparisonResult:
    """Public outcome of a batch of independent secure comparisons."""

    left_ge_right: np.ndarray
    cost: ComparisonCost

    @property
    def count(self) -> int:
        return int(self.left_ge_right.shape[0])

    @property
    def bits_per_comparison(self) -> int:
        return self.cost.bits


class SecureComparator:
    """Two-party secure comparison with CrypTFlow2-style cost accounting."""

    BLOCK_BITS = 4

    def __init__(
        self,
        bit_width: int = 32,
        accountant: Optional[TranscriptAccountant] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if bit_width <= 0 or bit_width > 64:
            raise ValueError("bit_width must be in [1, 64]")
        self.bit_width = bit_width
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self._ot = ObliviousTransfer(accountant=self.accountant, rng=rng)
        self._rng = rng if rng is not None else np.random.default_rng()
        # Party B's truth tables per block value b, one packed word each:
        # bit c is ``c > b`` (greater-than share) / ``c == b`` (equality).
        table_size = 1 << self.BLOCK_BITS
        self._equal_tables = np.array([1 << b for b in range(table_size)], dtype=np.uint16)
        self._greater_tables = np.array(
            [(1 << table_size) - (2 << b) for b in range(table_size)], dtype=np.uint16
        )

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def compare(self, left: int, right: int) -> ComparisonResult:
        """Return whether ``left >= right`` revealing only that bit.

        ``left`` is held by party A and ``right`` by party B; both values
        must be non-negative and fit in ``bit_width`` bits.
        """
        self._validate(left, "left")
        self._validate(right, "right")
        bits_before = self.accountant.bits
        ots_before = self.accountant.ot_invocations

        greater, equal = self._block_compare(int(left), int(right))
        # left >= right  <=>  left > right or left == right
        result = bool(greater or equal)

        self.accountant.comparisons += 1
        obs.add_counter("crypto.comparisons")
        return ComparisonResult(
            left_ge_right=result,
            bits_exchanged=self.accountant.bits - bits_before,
            ot_invocations=self.accountant.ot_invocations - ots_before,
        )

    def compare_batch(self, left, right, execute: bool = False) -> BatchComparisonResult:
        """Evaluate many independent comparisons as one numpy block.

        ``left[i] >= right[i]`` for parallel 1-D integer arrays.  Every
        comparison is charged exactly the transcript of one
        :meth:`compare` run (same counters, same capped log entries, in the
        same per-comparison pattern), so a batch is indistinguishable from
        the equivalent python loop in all recorded observables.

        ``execute`` selects how the outcome bits are produced:

        * ``False`` (the clear-mode default) evaluates them directly and
          charges the analytic per-comparison pattern;
        * ``True`` runs the millionaires' block protocol itself, vectorised
          over the batch (:meth:`execute_batch` — every outcome is
          derived only from simulated table-OT outputs, the same structural
          information boundary as the scalar loop).  This is the path secure
          construction uses.

        The two paths are bit-identical in results, accountant counters and
        capped log (the executed path charges the canonical per-comparison
        interleaved pattern, not its blockwise execution order — a constant
        transcript reordering the protocol's synchronous rounds permit).

        **RNG block-draw contract**: draws **nothing** from the comparator's
        RNG under either path (the simulated 1-out-of-2^m table OTs need no
        masking randomness) — batched and looped execution leave any shared
        random stream in the same state.
        """
        left = self._operand_array(left, "left")
        right = self._operand_array(right, "right")
        if left.ndim != 1 or left.shape != right.shape:
            raise ValueError("compare_batch expects two 1-D arrays of equal length")
        if execute:
            right_blocks = self.block_rows(right)
            outcomes = self.execute_batch(
                left, lambda left_blocks: self.leaf_shares(left_blocks, right_blocks)
            )
        else:
            outcomes = left >= right
        cost = self.charge_batch(int(left.shape[0]))
        return BatchComparisonResult(left_ge_right=outcomes, cost=cost)

    def charge_batch(self, count: int) -> ComparisonCost:
        """Charge ``count`` comparisons their canonical transcript; return its cost.

        The one accountant + obs charge of every batch, however its outcome
        bits were produced (clear, executed in process, or executed against a
        remote party): the per-comparison interleaved pattern of
        :func:`comparison_cost`, not the blockwise execution order, so the
        capped log is entry-for-entry that of ``count`` scalar
        :meth:`compare` calls.
        """
        cost = comparison_cost(self.bit_width, block_bits=self.BLOCK_BITS)
        self.accountant.ot_invocations += cost.ot_invocations * count
        self.accountant.record_pattern(cost.pattern, count)
        self.accountant.comparisons += count
        obs.add_counter("crypto.ot_invocations", cost.ot_invocations * count)
        obs.add_counter("crypto.comparisons", count)
        return cost

    def argmax(self, values: List[int]) -> int:
        """Return the index of the maximum via pairwise secure comparisons.

        Ties resolve to the earliest index.  Used to pick the most-loaded
        device among the candidate vertex set (Alg. 3, server part 2).

        Speculate-and-verify: the scan's ``n - 1`` pairs ``(values[i], best
        so far)`` follow from the running maximum, so they run as **one**
        executed batch (counters and capped log of ``n - 1`` scalar
        :meth:`compare` calls) and the chain is re-derived from the protocol
        outcomes alone; a disagreement raises.
        """
        if len(values) == 0:
            raise ValueError("argmax of an empty list")
        values = self._operand_array(values, "values")
        running = np.maximum.accumulate(values)
        outcomes = self.compare_batch(values[1:], running[:-1], execute=True).left_ge_right
        # The best so far after position i sits at the last position whose
        # comparison returned ">=" (position 0 when none did).
        last_win = np.arange(values.shape[0])
        last_win[1:][~outcomes] = 0
        derived = values[np.maximum.accumulate(last_win)]
        if not np.array_equal(derived, running):
            raise RuntimeError("secure argmax disagrees with the speculated running maximum")
        # Earliest position attaining the final best (deterministic tie-break).
        return int(np.argmax(derived == derived[-1]))

    # ------------------------------------------------------------------ #
    # Protocol internals
    # ------------------------------------------------------------------ #
    def _validate(self, value: int, name: str) -> None:
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
        if value >= (1 << self.bit_width):
            raise ValueError(f"{name} does not fit in {self.bit_width} bits")

    def _operand_array(self, values, name: str) -> np.ndarray:
        """Validate a batch operand (see :func:`operand_array`)."""
        return operand_array(values, name, self.bit_width)

    def _blocks(self, value: int) -> List[int]:
        """Split ``value`` into big-endian 4-bit blocks."""
        num_blocks = (self.bit_width + self.BLOCK_BITS - 1) // self.BLOCK_BITS
        blocks = []
        for index in reversed(range(num_blocks)):
            blocks.append((value >> (index * self.BLOCK_BITS)) & ((1 << self.BLOCK_BITS) - 1))
        return blocks

    def _block_compare(self, left: int, right: int) -> Tuple[bool, bool]:
        """Return (left > right, left == right) using the block recursion."""
        left_blocks = self._blocks(left)
        right_blocks = self._blocks(right)

        # Leaf layer: for every block, party A obtains secret-shared
        # greater-than and equality bits through 1-out-of-16 OTs where party B
        # is the sender holding the truth tables of its block value.
        greater_flags: List[bool] = []
        equal_flags: List[bool] = []
        table_size = 1 << self.BLOCK_BITS
        for left_block, right_block in zip(left_blocks, right_blocks):
            greater_table = tuple(int(candidate > right_block) for candidate in range(table_size))
            equal_table = tuple(int(candidate == right_block) for candidate in range(table_size))
            greater_flags.append(bool(self._ot.transfer_table(greater_table, left_block, message_bits=1)))
            equal_flags.append(bool(self._ot.transfer_table(equal_table, left_block, message_bits=1)))

        # Combine layer: logarithmic AND/OR tree, each level costing one round
        # of (simulated) Beaver-triple multiplications, accounted per node.
        while len(greater_flags) > 1:
            next_greater: List[bool] = []
            next_equal: List[bool] = []
            for index in range(0, len(greater_flags) - 1, 2):
                high_greater, high_equal = greater_flags[index], equal_flags[index]
                low_greater, low_equal = greater_flags[index + 1], equal_flags[index + 1]
                # gt = gt_high OR (eq_high AND gt_low); eq = eq_high AND eq_low
                self.accountant.record("and-gate", 2 * self.BLOCK_BITS)
                next_greater.append(high_greater or (high_equal and low_greater))
                next_equal.append(high_equal and low_equal)
            if len(greater_flags) % 2 == 1:
                next_greater.append(greater_flags[-1])
                next_equal.append(equal_flags[-1])
            greater_flags = next_greater
            equal_flags = next_equal

        return greater_flags[0], equal_flags[0]

    def block_rows(self, values: np.ndarray) -> np.ndarray:
        """Split a uint64 batch into ``(blocks, n)`` big-endian block values.

        Block-major, so every later step streams one contiguous length-``n``
        row per block.
        """
        num_blocks = (self.bit_width + self.BLOCK_BITS - 1) // self.BLOCK_BITS
        shifts = np.arange(num_blocks - 1, -1, -1, dtype=np.uint64)[:, None] * np.uint64(self.BLOCK_BITS)
        mask = np.uint64((1 << self.BLOCK_BITS) - 1)
        return ((values >> shifts) & mask).astype(np.uint8)

    def leaf_shares(
        self, left_blocks: np.ndarray, right_blocks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Party B's side of the leaf layer: ``(greater, equal)`` share bits.

        ``right_blocks`` are party B's own block values, ``left_blocks`` the
        equal-shape choices party A sent.  The truth table of each block
        travels as one packed ``2^m``-bit word (looked up by its block value
        — no ``(n, 2^m)`` table is built) and two
        :meth:`ObliviousTransfer.transfer_packed_table_batch` calls return
        the greater-than and the equality share of every position; a choice
        outside the table raises ``ValueError``.
        """
        table_size = 1 << self.BLOCK_BITS
        greater = self._ot.transfer_packed_table_batch(
            np.take(self._greater_tables, right_blocks), left_blocks, table_size
        )
        equal = self._ot.transfer_packed_table_batch(
            np.take(self._equal_tables, right_blocks), left_blocks, table_size
        )
        return greater, equal

    def execute_batch(self, left: np.ndarray, leaf_source) -> np.ndarray:
        """Vectorised :meth:`_block_compare` over a whole (uint64) batch.

        Runs the same protocol steps as the scalar recursion for *every*
        position at once, as party A: ``left`` is split into ``(blocks, n)``
        block rows (:meth:`block_rows`), ``leaf_source(left_blocks)`` returns
        party B's ``(greater, equal)`` leaf shares as two bool matrices of
        that shape, and the logarithmic AND/OR tree (:meth:`_combine`)
        reduces them to ``left >= right``.  The leaf source is the only thing
        that differs between deployments: in process it is
        :meth:`leaf_shares` over party B's block rows, across a process
        boundary (:class:`~repro.crypto.transport.RemoteParty`) the frames
        that carry the same lookups.  The outcome bits are derived
        exclusively from what the source returned — the structural
        information boundary of the scalar loop is preserved.

        Accounting is left to the caller (:meth:`charge_batch`): the scalar
        loop interleaves the two OTs of each block *per comparison*, while
        this kernel executes them *across* comparisons.

        **RNG block-draw contract**: draws **nothing** (table OTs need no
        masking randomness).
        """
        greater, equal = self._combine(*leaf_source(self.block_rows(left)))
        # left >= right  <=>  left > right or left == right
        return greater | equal

    @staticmethod
    def _combine(greater: np.ndarray, equal: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The scalar recursion's AND/OR combine tree, over whole block rows."""
        while greater.shape[0] > 1:
            width = greater.shape[0]
            paired = width - (width % 2)
            high_greater = greater[0:paired:2]
            high_equal = equal[0:paired:2]
            low_greater = greater[1:paired:2]
            low_equal = equal[1:paired:2]
            next_greater = high_greater | (high_equal & low_greater)
            next_equal = high_equal & low_equal
            if width % 2 == 1:
                next_greater = np.concatenate([next_greater, greater[-1:]])
                next_equal = np.concatenate([next_equal, equal[-1:]])
            greater, equal = next_greater, next_equal
        return greater[0], equal[0]
