"""Simulated 1-out-of-2 oblivious transfer (OT).

CrypTFlow2's millionaires' protocol — which Lumos uses to compare node
degrees and workloads without revealing them — is built from 1-out-of-2 OT
invocations.  A real deployment would use an OT extension over a network; in
this single-process reproduction we *simulate* the protocol faithfully at the
message level:

* the sender holds two messages ``m0`` and ``m1``;
* the receiver holds a choice bit ``c`` and learns exactly ``m_c``;
* the sender learns nothing about ``c``; the receiver learns nothing about
  ``m_{1-c}``.

The information boundary is enforced structurally: the receiver only ever
receives the XOR-masked pair and the key for its chosen message, and the
implementation records every transmitted bit in a
:class:`TranscriptAccountant` so benches can report communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs


@dataclass
class TranscriptAccountant:
    """Counts messages and bits exchanged by the simulated crypto protocols."""

    #: The log stores at most this many entries (counters keep accumulating).
    LOG_CAP = 10_000

    messages: int = 0
    bits: int = 0
    ot_invocations: int = 0
    comparisons: int = 0
    _log: List[str] = field(default_factory=list)

    def record(self, description: str, bits: int) -> None:
        """Record one message of ``bits`` bits."""
        self.messages += 1
        self.bits += int(bits)
        obs.add_counter("crypto.messages")
        obs.add_counter("crypto.bits", int(bits))
        if len(self._log) < self.LOG_CAP:
            self._log.append(f"{description}:{bits}")

    def record_pattern(self, pattern: Sequence[Tuple[str, int]], count: int) -> None:
        """Record ``count`` repetitions of a fixed ``(description, bits)`` pattern.

        Counter- and log-identical to calling :meth:`record` once per entry of
        the repeated pattern (including the ``LOG_CAP`` truncation), but O(1)
        in the counters — this is how the batched protocol kernels charge one
        transcript entry per logical message without a python loop per message.
        """
        if count <= 0 or not pattern:
            return
        self.messages += len(pattern) * count
        self.bits += sum(bits for _, bits in pattern) * count
        obs.add_counter("crypto.messages", len(pattern) * count)
        obs.add_counter("crypto.bits", sum(bits for _, bits in pattern) * count)
        remaining = self.LOG_CAP - len(self._log)
        if remaining > 0:
            entries = [f"{description}:{bits}" for description, bits in pattern]
            repeats = min(count, -(-remaining // len(entries)))
            self._log.extend((entries * repeats)[:remaining])

    def record_ot(self, message_bits: int) -> None:
        """Record one 1-out-of-2 OT of ``message_bits``-bit messages.

        A semi-honest OT costs one masked pair from sender to receiver plus a
        constant-size choice message; we account 2 * message_bits + 128 bits
        (the 128-bit term standing in for the public-key / base-OT overhead).
        """
        self.ot_invocations += 1
        obs.add_counter("crypto.ot_invocations")
        self.record("ot", 2 * message_bits + 128)

    def merge(self, other: "TranscriptAccountant") -> None:
        """Fold another accountant's counters and capped log into this one.

        The log keeps ``other``'s entries in order, truncated at ``LOG_CAP``
        exactly as if every one of them had been re-recorded here — so merging
        two capped accountants yields a capped accountant whose log is the
        concatenation prefix the cap allows.
        """
        self.messages += other.messages
        self.bits += other.bits
        self.ot_invocations += other.ot_invocations
        self.comparisons += other.comparisons
        remaining = self.LOG_CAP - len(self._log)
        if remaining > 0 and other._log:
            self._log.extend(other._log[:remaining])

    def snapshot(self) -> dict:
        """Return the counters as a plain dictionary."""
        return {
            "messages": self.messages,
            "bits": self.bits,
            "ot_invocations": self.ot_invocations,
            "comparisons": self.comparisons,
        }


@dataclass(frozen=True)
class OTResult:
    """Outcome of one oblivious transfer as observed by the receiver."""

    chosen_message: int
    message_bits: int


#: Widths whose modulus ``2**bits`` no longer fits numpy's default int64
#: bounded-integer draw (``integers(high)`` accepts an exclusive bound up to
#: ``2**63``, so 63-bit pads still work on the historical path; 64-bit is the
#: first width that needs the explicit uint64 draw).
_WIDE_PAD_BITS = 64


class ObliviousTransfer:
    """Simulated semi-honest 1-out-of-2 OT with XOR one-time pads."""

    def __init__(
        self,
        accountant: Optional[TranscriptAccountant] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self._rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------ #
    # Pad generation (the only RNG touchpoint of the OT simulation)
    # ------------------------------------------------------------------ #
    def _draw_pad_block(self, count: int, message_bits: int) -> np.ndarray:
        """Draw ``(count, 2)`` one-time pads for ``message_bits``-bit messages.

        Widths up to 63 use the historical default-dtype (int64) draw, so
        every previously pinned stream stays bit-for-bit unchanged; wider
        widths (whose modulus exceeds the int64 bound) switch to an explicit
        uint64 draw.  Numpy fills bounded-integer blocks from the bit stream
        in C order with the same per-value algorithm as scalar draws of the
        same dtype, so an ``(n, 2)`` block is interchangeable with ``2 * n``
        scalar draws — the property every stream contract here relies on.
        """
        if message_bits >= _WIDE_PAD_BITS:
            return self._rng.integers(
                0, (1 << message_bits) - 1, size=(count, 2),
                dtype=np.uint64, endpoint=True,
            )
        return self._rng.integers(1 << message_bits, size=(count, 2))

    def transfer(self, message_zero: int, message_one: int, choice: int, message_bits: int = 32) -> OTResult:
        """Run one OT: the receiver with ``choice`` learns exactly one message.

        Parameters
        ----------
        message_zero, message_one:
            The sender's two messages (non-negative integers below
            ``2 ** message_bits``).
        choice:
            The receiver's choice bit (0 or 1).
        message_bits:
            Bit width of the messages, used for communication accounting.
        """
        if choice not in (0, 1):
            raise ValueError("choice must be 0 or 1")
        modulus = 1 << message_bits
        for name, message in (("message_zero", message_zero), ("message_one", message_one)):
            if not 0 <= message < modulus:
                raise ValueError(f"{name} must lie in [0, 2^{message_bits})")

        # Sender masks both messages with independent one-time pads; the
        # receiver obtains only the pad of its chosen index (this is the step
        # a real protocol realises with public-key base OTs).  Narrow widths
        # keep the historical two-scalar draw (stream-compatible with every
        # pinned transcript); wide widths go through the block path, which
        # consumes the stream identically.
        if message_bits >= _WIDE_PAD_BITS:
            pads = self._draw_pad_block(1, message_bits)
            pad_zero, pad_one = int(pads[0, 0]), int(pads[0, 1])
        else:
            pad_zero = int(self._rng.integers(modulus))
            pad_one = int(self._rng.integers(modulus))
        masked = (message_zero ^ pad_zero, message_one ^ pad_one)
        chosen_pad = pad_one if choice else pad_zero
        self.accountant.record_ot(message_bits)

        chosen_message = masked[choice] ^ chosen_pad
        return OTResult(chosen_message=chosen_message, message_bits=message_bits)

    def transfer_batch(
        self, messages_zero, messages_one, choices, message_bits: int = 32
    ):
        """Run many independent 1-out-of-2 OTs as one numpy block.

        Counter- and log-identical to calling :meth:`transfer` once per
        position, and the receiver of position ``i`` learns exactly
        ``messages_one[i] if choices[i] else messages_zero[i]``.

        **RNG block-draw contract**: consumes exactly ``2 * n`` values from
        the shared generator via one ``integers(modulus, size=(n, 2))`` block
        draw (uint64 dtype for ``message_bits=64``, whose modulus exceeds
        the int64 bound — see :meth:`_draw_pad_block`).  Numpy fills
        bounded-integer blocks from the bit stream in C order with the same
        per-value algorithm as scalar draws of the same dtype, so the stream
        is left bit-for-bit where ``n`` scalar :meth:`transfer` calls
        (pad_zero then pad_one, per position) would leave it — pinned by
        ``tests/helpers/rng_contract.py``.
        """
        wide = message_bits >= _WIDE_PAD_BITS
        messages_zero = self._operand_array(messages_zero, "message_zero", message_bits)
        messages_one = self._operand_array(messages_one, "message_one", message_bits)
        choices = np.asarray(choices, dtype=np.int64)
        if (
            messages_zero.ndim != 1
            or messages_zero.shape != messages_one.shape
            or messages_zero.shape != choices.shape
        ):
            raise ValueError("transfer_batch expects three 1-D arrays of equal length")
        if choices.size and not np.isin(choices, (0, 1)).all():
            raise ValueError("choice must be 0 or 1")
        count = int(choices.shape[0])
        if count == 0:
            return np.zeros(0, dtype=np.uint64 if wide else np.int64)
        pads = self._draw_pad_block(count, message_bits)
        masked = np.stack([messages_zero ^ pads[:, 0], messages_one ^ pads[:, 1]], axis=1)
        rows = np.arange(count)
        chosen = masked[rows, choices] ^ pads[rows, choices]
        self.accountant.ot_invocations += count
        self.accountant.record_pattern((("ot", 2 * message_bits + 128),), count)
        return chosen

    @staticmethod
    def _operand_array(values, name: str, message_bits: int) -> np.ndarray:
        """Validate a batch operand against ``[0, 2**message_bits)``.

        Mirrors ``SecureComparator._operand_array``: int64 is the historical
        dtype for widths below 64 (so narrow-path XOR results keep their
        int64 dtype), while 64-bit operands — legal up to ``2**64 - 1`` —
        need the unsigned widening to avoid an int64 ``OverflowError``.
        """
        array = np.asarray(values)
        if array.dtype != np.uint64:
            try:
                array = np.asarray(values, dtype=np.int64)
            except OverflowError:
                # Python ints above 2**63 - 1 only fit uint64; genuinely
                # negative inputs still raise here rather than wrapping.
                array = np.asarray(values, dtype=np.uint64)
        if array.size:
            if array.dtype != np.uint64 and int(array.min()) < 0:
                raise ValueError(f"{name} must lie in [0, 2^{message_bits})")
            if message_bits < 64 and int(array.max()) >= (1 << message_bits):
                raise ValueError(f"{name} must lie in [0, 2^{message_bits})")
        if message_bits >= _WIDE_PAD_BITS:
            return array.astype(np.uint64, copy=False)
        return array.astype(np.int64, copy=False)

    def transfer_table(self, table: Tuple[int, ...], choice: int, message_bits: int = 32) -> int:
        """1-out-of-N OT built from a direct table lookup with N-message cost.

        CrypTFlow2 uses 1-out-of-16 OTs for blocks of 4 bits; we account the
        communication as ``N * message_bits`` and return only the chosen entry.
        """
        if not 0 <= choice < len(table):
            raise ValueError("choice out of table range")
        self.accountant.ot_invocations += 1
        obs.add_counter("crypto.ot_invocations")
        self.accountant.record("ot-n", len(table) * message_bits + 128)
        return int(table[choice])

    def transfer_packed_table_batch(self, tables, choices, table_size: int):
        """Run many 1-out-of-N table OTs of **1-bit** messages as one block.

        ``tables[i]`` is the sender's whole truth table packed into one
        unsigned word (entry ``c`` is bit ``c``) and ``choices[i]`` the
        receiver's index into it: per position of the two equal-shape arrays
        the receiver learns what :meth:`transfer_table` returns for the
        unpacked table.  Charges nothing — the batched millionaires' kernel
        charges the canonical *per-comparison* interleaved pattern itself
        instead of this blockwise order.

        **RNG block-draw contract**: draws **nothing**.
        """
        tables = np.asarray(tables)
        choices = np.asarray(choices)
        if tables.shape != choices.shape or not (tables.dtype.kind == choices.dtype.kind == "u"):
            raise ValueError("transfer_packed_table_batch expects equal-shape unsigned arrays")
        if table_size > 8 * tables.dtype.itemsize or (
            choices.size and int(choices.max()) >= table_size
        ):
            raise ValueError("choice out of table range")
        return ((tables >> choices) & 1).astype(bool)
