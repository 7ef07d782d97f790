"""Simulated 1-out-of-N table oblivious transfer (OT) and its accountant.

CrypTFlow2's millionaires' protocol — which Lumos uses to compare node
degrees and workloads without revealing them — obtains its per-block share
bits through 1-out-of-2^m OTs: the sender holds a truth table, the receiver
holds an index into it and learns exactly that entry, and the sender learns
nothing about the index.  In this reproduction the OT is *simulated* at the
message level (:func:`transfer_packed_table_batch`), and every transmitted
bit the protocol would send is recorded in a :class:`TranscriptAccountant`
so benches can report communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

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
        pattern_bits = sum(bits for _, bits in pattern)
        self.messages += len(pattern) * count
        self.bits += pattern_bits * count
        obs.add_counter("crypto.messages", len(pattern) * count)
        obs.add_counter("crypto.bits", pattern_bits * count)
        remaining = self.LOG_CAP - len(self._log)
        if remaining > 0:
            entries = [f"{description}:{bits}" for description, bits in pattern]
            repeats = min(count, -(-remaining // len(entries)))
            self._log.extend((entries * repeats)[:remaining])

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


def transfer_packed_table_batch(tables, choices, table_size: int) -> np.ndarray:
    """Run many 1-out-of-N table OTs of **1-bit** messages as one block.

    ``tables[i]`` is the sender's whole truth table packed into one unsigned
    word (entry ``c`` is bit ``c``) and ``choices[i]`` the receiver's index
    into it: per position of the two equal-shape arrays the receiver learns
    bit ``choices[i]`` of ``tables[i]``, and nothing else.  Charges nothing —
    the millionaires' kernel charges the canonical *per-comparison*
    interleaved pattern itself instead of this blockwise order.

    **RNG block-draw contract**: draws **nothing** (table OTs need no masking
    randomness).
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
