"""Secure 2-party integer comparison (simulated CrypTFlow2 millionaires').

Lumos compares node degrees (greedy initialisation, Alg. 1) and workloads
(MCMC iteration, Alg. 2/3) without revealing the values themselves: the two
devices run a millionaires'-protocol instance and learn *only* the comparison
bit.  CrypTFlow2 (Rathee et al., CCS 2020) realises this with a recursive
block decomposition over 1-out-of-2^m OTs with complexity ``O(L log L)`` for
``L``-bit inputs.

This module simulates that protocol at the message level, over whole
batches at once:

* :meth:`SecureComparator.execute_batch` decomposes both operand batches
  into 4-bit blocks, obtains per-block equality/greater-than shares through
  the simulated table OT, and combines them with a logarithmic tree — so the
  *communication pattern and cost* mirror the real protocol; and
* the public API returns only the comparison bits, never the operand of the
  other party, which is what the rest of the system relies on (Definition 2,
  zero-knowledge degree comparison).

The one-comparison-at-a-time form of the protocol is the oracle of this
kernel and lives with the tests (``tests/helpers/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from .oblivious_transfer import TranscriptAccountant, transfer_packed_table_batch

#: Candidate dtypes of the block split, narrowest first.
_SPLIT_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)


@dataclass(frozen=True)
class ComparisonCost:
    """Analytic per-comparison cost of the CrypTFlow2 block protocol.

    The block protocol's communication depends only on the bit width — never
    on the operand values — so one comparison's transcript is a fixed pattern
    of messages.  ``pattern`` is the exact ``(description, bits)`` sequence
    one comparison records: ``2 * num_blocks`` 1-out-of-2^m OTs followed by
    ``num_blocks - 1`` AND-gate rounds.  The batched kernels (and the MCMC
    balancer's analytic charger) derive their accounting from this single
    source so the two paths cannot drift.
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
            # only fit the unsigned dtype; a batch mixing them with a
            # negative, or holding 2**64 or more, fits neither.
            try:
                array = np.asarray(values, dtype=np.uint64)
            except OverflowError:
                raise ValueError(
                    f"{name} must be non-negative and fit in {bit_width} bits"
                ) from None
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


class SecureComparator:
    """Two-party secure comparison with CrypTFlow2-style cost accounting."""

    BLOCK_BITS = 4

    def __init__(
        self,
        bit_width: int = 32,
        accountant: Optional[TranscriptAccountant] = None,
    ) -> None:
        if bit_width <= 0 or bit_width > 64:
            raise ValueError("bit_width must be in [1, 64]")
        self.bit_width = bit_width
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        # The block split's dtype, shifts and mask (see block_rows).
        self._block_dtype = np.dtype(
            next(dtype for dtype in _SPLIT_DTYPES if np.iinfo(dtype).bits >= bit_width)
        )
        num_blocks = -(-bit_width // self.BLOCK_BITS)
        self._block_shifts = (
            np.arange(num_blocks - 1, -1, -1, dtype=self._block_dtype)[:, None] * self.BLOCK_BITS
        )
        self._block_mask = self._block_dtype.type((1 << self.BLOCK_BITS) - 1)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def compare_batch(self, left, right, execute: bool = False) -> BatchComparisonResult:
        """Evaluate many independent comparisons as one numpy block.

        ``left[i] >= right[i]`` for parallel 1-D integer arrays.  Every
        comparison is charged exactly the transcript of one protocol run
        (same counters, same capped log entries, in the same per-comparison
        pattern), so a batch is indistinguishable from the equivalent
        one-at-a-time loop in all recorded observables.

        ``execute`` selects how the outcome bits are produced:

        * ``False`` (the clear-mode default) evaluates them directly and
          charges the analytic per-comparison pattern;
        * ``True`` runs the millionaires' block protocol itself, vectorised
          over the batch (:meth:`execute_batch` — every outcome is
          derived only from simulated table-OT outputs).  This is the path
          secure construction uses.

        The two paths are bit-identical in results, accountant counters and
        capped log (the executed path charges the canonical per-comparison
        interleaved pattern, not its blockwise execution order — a constant
        transcript reordering the protocol's synchronous rounds permit).

        **RNG block-draw contract**: draws **nothing** under either path (the
        simulated 1-out-of-2^m table OTs need no masking randomness).
        """
        left = operand_array(left, "left", self.bit_width)
        right = operand_array(right, "right", self.bit_width)
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
        capped log is entry-for-entry that of ``count`` comparisons run one
        at a time.
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
        executed batch (counters and capped log of the ``n - 1`` comparisons
        of the sequential scan) and the chain is re-derived from the protocol
        outcomes alone; a disagreement raises.
        """
        if len(values) == 0:
            raise ValueError("argmax of an empty list")
        values = operand_array(values, "values", self.bit_width)
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
    def block_rows(self, values: np.ndarray) -> np.ndarray:
        """Split a uint64 batch into ``(blocks, n)`` big-endian block values.

        Block-major, so every later step streams one contiguous length-``n``
        row per block.  The split runs in the narrowest unsigned dtype that
        holds ``bit_width`` (uint8/16/32/64, a multiple of the block width,
        so the narrowing drops only bits no block reads); the shifts and the
        mask are the comparator's, built once.
        """
        narrow = values.astype(self._block_dtype, copy=False)
        return ((narrow >> self._block_shifts) & self._block_mask).astype(np.uint8)

    def leaf_shares(
        self, left_blocks: np.ndarray, right_blocks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Party B's side of the leaf layer: ``(greater, equal)`` share bits.

        ``right_blocks`` are party B's own block values, ``left_blocks`` the
        equal-shape choices party A sent.  Party B computes the truth table
        of each block ``b`` as one packed ``2^m``-bit word, bit ``c`` set
        where the choice ``c`` satisfies it: equality ``1 << b``, greater
        ``2^m - (2 << b)`` (every ``c > b``), in uint16 — no ``(n, 2^m)``
        table is built.  Two
        :func:`~repro.crypto.oblivious_transfer.transfer_packed_table_batch`
        calls return the greater-than and the equality share of every
        position; a choice outside the table raises ``ValueError``.
        """
        table_size = 1 << self.BLOCK_BITS
        equal_words = np.left_shift(np.uint16(1), right_blocks, dtype=np.uint16)
        # 2^16 - (2 << b) wraps to -(2 << b) in uint16.
        greater_words = np.negative(np.left_shift(equal_words, 1, dtype=np.uint16))
        greater = transfer_packed_table_batch(greater_words, left_blocks, table_size)
        equal = transfer_packed_table_batch(equal_words, left_blocks, table_size)
        return greater, equal

    def execute_batch(self, left: np.ndarray, leaf_source) -> np.ndarray:
        """The millionaires' block protocol over a whole (uint64) batch.

        Runs the protocol steps of one comparison for *every* position at
        once, as party A: ``left`` is split into ``(blocks, n)``
        block rows (:meth:`block_rows`), ``leaf_source(left_blocks)`` returns
        party B's ``(greater, equal)`` leaf shares as two bool matrices of
        that shape, and the logarithmic AND/OR tree (:meth:`_combine`)
        reduces them to ``left >= right``.  The leaf source is the only thing
        that differs between deployments: in process it is
        :meth:`leaf_shares` over party B's block rows, across a process
        boundary (:class:`~repro.crypto.transport.RemoteParty`) the frames
        that carry the same OTs.  The outcome bits are derived
        exclusively from what the source returned — the structural
        information boundary of the protocol.

        Accounting is left to the caller (:meth:`charge_batch`): the
        protocol interleaves the two OTs of each block *per comparison*,
        while this kernel executes them *across* comparisons.

        **RNG block-draw contract**: draws **nothing** (table OTs need no
        masking randomness).
        """
        greater, equal = self._combine(*leaf_source(self.block_rows(left)))
        # left >= right  <=>  left > right or left == right
        return greater | equal

    @staticmethod
    def _combine(greater: np.ndarray, equal: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The protocol's AND/OR combine tree, over whole block rows.

        ``gt = gt_high | (eq_high & gt_low)`` and ``eq = eq_high & eq_low``
        per adjacent pair of block rows, an odd last row carried up, until
        one row is left.
        """
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
