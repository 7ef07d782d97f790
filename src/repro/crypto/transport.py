"""Two-party secure comparison over a real transport channel.

In process, :class:`~repro.crypto.secure_compare.SecureComparator` simulates
both protocol parties in one interpreter: "communication" is a function
call, and cost is what the analytic
:func:`~repro.crypto.secure_compare.comparison_cost` model says it should
be.  This module runs the same protocol across a real process boundary so
the cost becomes *measured*:

* a party process (:func:`party_main`) holds party B's private operands and
  serves its half of the millionaires' protocol over a
  :class:`~repro.crypto.channel.PartyChannel`;
* a :class:`RemoteParty` driver holds party A's operands **and all of the
  session's bookkeeping** — the
  :class:`~repro.crypto.oblivious_transfer.TranscriptAccountant` and the
  optional :class:`~repro.federation.network.CommunicationLedger`.

This module is **framing and reconciliation only**.  The millionaires'
protocol exists once, in :class:`~repro.crypto.secure_compare.SecureComparator`:
the driver hands its ``execute_batch`` kernel a leaf source that sends every
block row's choices as one ``CMP_CHOICES`` frame and reads party B's shares
back as one ``CMP_RESPONSE`` frame per row, the party answers each row
through the comparator's ``leaf_shares``, and the comparator's
``charge_batch`` charges the accountant.  Because both
deployments run that one kernel, a remote session is **bit-for-bit
equivalent** to the in-process simulation in results, accountant counters
and capped log, and canonical ledger transcript, and neither draws from any
random stream.  The equivalence is asserted by
``tests/test_secure_transport.py``.

Measured-vs-analytic contract
-----------------------------
Frame payloads are sized so that the *protocol* frames of a session (the
``CMP_*`` kinds) total **exactly** the bytes the analytic model charges —
``count * comparison_cost(bit_width).bits // 8``.  Where the analytic model
counts material this simulation does not need to move (base-OT masks,
Beaver-triple shares), the frames carry deterministic stand-in bytes of the
modeled size, so the wire is an honest physical realisation of the model
rather than a smaller cousin of it.  :meth:`RemoteParty.compare_batch`
re-derives the analytic total and raises :class:`MeasuredCostMismatch` if the
bytes that actually crossed the channel diverge — the contract fails loudly,
never silently.  The stand-in bytes of a session are slices of one read-only
zero buffer the driver allocates before the party forks; a response carries
them first, so the party checksums them once per session and each row's
CRC-32 continues from theirs.  Session ``CONTROL`` handshakes (ready / done
/ goodbye) are *not* protocol traffic; they are reported separately and
excluded from the reconciliation, as is the channel's fixed per-frame header
(:data:`~repro.crypto.channel.FRAME_OVERHEAD_BYTES`).

Failure model
-------------
A party killed mid-session surfaces on the driver as a typed
:class:`RemotePartyError` (wrapping the channel's timeout/EOF error and
carrying the party's exit code), never a hang: every channel receive is
deadline-bounded.
"""

from __future__ import annotations

import multiprocessing
import sys
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..federation.events import MessageKind
from ..federation.network import constant_column
from .channel import (
    FRAME_OVERHEAD_BYTES,
    MAX_FRAME_BYTES,
    ChannelError,
    FrameCorruption,
    FrameKind,
    PartyChannel,
    channel_pair,
    check_timeout,
)
from .oblivious_transfer import TranscriptAccountant
from .secure_compare import ComparisonCost, SecureComparator, comparison_cost, operand_array

#: Default bound on every driver-side receive; a dead or wedged party must
#: surface within this window.
DEFAULT_SESSION_TIMEOUT = 30.0


class RemotePartyError(RuntimeError):
    """A two-party session failed: peer death, timeout, or protocol error."""


class MeasuredCostMismatch(RemotePartyError):
    """Bytes measured on the wire diverged from the analytic cost model."""


@dataclass(frozen=True)
class TransportReport:
    """Measured transport accounting for one two-party session.

    ``protocol_payload_bytes`` covers only the ``CMP_*`` frames the analytic
    model prices (and equals ``analytic_payload_bytes`` — the driver raises
    otherwise); ``control_payload_bytes`` is session framing (handshakes);
    ``wire_bytes`` is everything including the per-frame channel header.
    """

    frames: int
    protocol_payload_bytes: int
    analytic_payload_bytes: int
    control_payload_bytes: int
    wire_bytes: int
    by_kind: dict

    def snapshot(self) -> dict:
        return {
            "frames": self.frames,
            "protocol_payload_bytes": self.protocol_payload_bytes,
            "analytic_payload_bytes": self.analytic_payload_bytes,
            "control_payload_bytes": self.control_payload_bytes,
            "wire_bytes": self.wire_bytes,
            "by_kind": dict(self.by_kind),
        }


@dataclass(frozen=True)
class RemoteComparisonOutcome:
    """Result of a comparison batch executed across the process boundary."""

    left_ge_right: np.ndarray
    cost: ComparisonCost
    report: TransportReport


#: Ledger ids of the two ends of a session in the ledger's frame table.
DRIVER_PARTY, REMOTE_PARTY = 0, 1

#: Protocol frame kinds priced by the analytic model (everything else is
#: session overhead).
PROTOCOL_KINDS = (
    FrameKind.CMP_CHOICES.name,
    FrameKind.CMP_RESPONSE.name,
    FrameKind.CMP_AND.name,
)


#: ``CMP_RESPONSE`` payload bytes per comparison and block row: the analytic
#: size of the block's two 1-out-of-2^m OTs, less the choice byte the driver
#: already sent in ``CMP_CHOICES``.
RESPONSE_BYTES = 2 * (((1 << SecureComparator.BLOCK_BITS) + 128) // 8) - 1


def _response_layout(count: int) -> Tuple[int, int]:
    """``(stand-in bytes, packed share-row bytes)`` of one ``CMP_RESPONSE``.

    A response is ``[stand-in | greater bits | equal bits]``: the stand-in
    first, so its CRC is a per-session constant the share rows continue.
    """
    packed = -(-count // 8)
    return RESPONSE_BYTES * count - 2 * packed, packed


def _stand_in(count: int, bit_width: int) -> bytes:
    """The session's zero stand-in bytes: one read-only buffer for both sides.

    Sized for the widest stand-in a frame carries — a response's head, or
    the combine tree's first ``CMP_AND`` level (one byte per gate per
    comparison).  The driver allocates it before the party forks; the
    party's response heads and the driver's ``CMP_AND`` frames are slices of
    it, so neither side builds a stand-in per frame.
    """
    blocks = comparison_cost(bit_width, block_bits=SecureComparator.BLOCK_BITS).num_blocks
    return bytes(max(_response_layout(count)[0], blocks // 2 * count))


# --------------------------------------------------------------------- #
# Party process (the far side of the channel)
# --------------------------------------------------------------------- #
def party_main(channel: PartyChannel, config: dict, private_values: bytes, stand_in: bytes) -> None:
    """Serve one comparison session as the remote party, then exit.

    ``config`` carries the public session parameters (count, bit width);
    ``private_values`` the party's own operands, delivered out-of-band via
    process spawn arguments — private inputs never cross the channel —
    and ``stand_in`` the session's zero stand-in buffer (:func:`_stand_in`).
    """
    # A forked party never records into the parent's ambient tracer.
    obs.set_tracer(None)
    try:
        _serve_comparison(channel, config, private_values, stand_in)
        channel.send(FrameKind.CONTROL, b"bye")
    except ChannelError:
        # Driver vanished: nothing left to report to.
        pass
    except Exception as exc:  # pragma: no cover - defensive reporting path
        try:
            channel.send(FrameKind.ERROR, f"{type(exc).__name__}: {exc}".encode())
        except ChannelError:
            pass
    finally:
        channel.close()


def _serve_comparison(channel, config, private_values, stand_in) -> None:
    """Party B of the millionaires' protocol: holds ``right``, serves tables.

    The driver sends the choice blocks of every big-endian block row as one
    ``CMP_CHOICES`` frame (one byte per comparison per row): the leaf OTs do
    not depend on one another, so they share one round.  This party reads
    the whole frame before it sends anything, then answers row by row
    through :meth:`~repro.crypto.secure_compare.SecureComparator.leaf_shares`
    — the packed-table OTs the in-process party B runs, whose range check
    rejects a choice byte outside the table — with one ``CMP_RESPONSE`` per
    row: the stand-in head that pads the response to the analytic size of
    the two 1-out-of-2^m OTs, then the two packed share rows.  The head is a
    slice of ``stand_in`` checksummed once per session; each row's CRC-32
    continues from it over the share rows alone, and no response buffer is
    allocated.  The combine tree's ``CMP_AND`` traffic is received and
    discarded (its information content is a local computation in the
    collapsed simulation; the frames exist to realise the modeled
    Beaver-triple bytes on a real wire).
    """
    count = int(config["count"])
    comparator = SecureComparator(bit_width=int(config["bit_width"]))
    right = np.frombuffer(private_values, dtype="<u8").astype(np.uint64, copy=False)
    if right.shape[0] != count:
        raise ValueError("private operand count mismatch")
    right_blocks = comparator.block_rows(right)
    width = right_blocks.shape[0]
    head_bytes, _ = _response_layout(count)
    head = memoryview(stand_in)[:head_bytes]
    head_crc = zlib.crc32(head)
    channel.send(FrameKind.CONTROL, b"ready")
    _, payload = channel.recv(expected=(FrameKind.CMP_CHOICES,))
    if len(payload) != width * count:
        raise ValueError(
            f"CMP_CHOICES carries {len(payload)} bytes for {width} x {count} choices"
        )
    choices = np.frombuffer(payload, dtype=np.uint8).reshape(width, count)
    for row_choices, blocks in zip(choices, right_blocks):
        greater, equal = comparator.leaf_shares(row_choices, blocks)
        greater, equal = np.packbits(greater), np.packbits(equal)
        crc = zlib.crc32(equal, zlib.crc32(greater, head_crc))
        channel.send(FrameKind.CMP_RESPONSE, head, greater, equal, crc=crc)
    while width > 1:
        channel.recv(expected=(FrameKind.CMP_AND,))
        width -= width // 2
    channel.recv(expected=(FrameKind.CONTROL,))  # done


# --------------------------------------------------------------------- #
# Driver (owns accountant, ledger)
# --------------------------------------------------------------------- #
class RemoteParty:
    """Drive comparison sessions against a party running in another process.

    The driver is the bookkeeping side: it owns the
    :class:`TranscriptAccountant` (charged with the canonical per-comparison
    pattern), and optionally a :class:`~repro.federation.network.CommunicationLedger`
    — modeled ``SECURE_COMPARISON`` traffic is charged exactly as the
    in-process callers charge it, while the physical frames are attributed
    to the ledger's frame table
    (:meth:`~repro.federation.network.CommunicationLedger.record_transport_frame`),
    keeping the canonical transcript untouched.
    """

    def __init__(
        self,
        bit_width: int = 32,
        accountant: Optional[TranscriptAccountant] = None,
        timeout: float = DEFAULT_SESSION_TIMEOUT,
        ledger=None,
    ) -> None:
        self.timeout = check_timeout(timeout)
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self._comparator = SecureComparator(bit_width, accountant=self.accountant)
        self.bit_width = bit_width
        self.ledger = ledger

    # -- infrastructure ------------------------------------------------ #
    @staticmethod
    def _mp_context():
        # Fork on Linux (cheap, keeps warm imports), the platform default
        # elsewhere.
        if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _run_session(
        self, config: dict, private_values: bytes, stand_in: bytes, protocol
    ) -> Tuple[object, TransportReport]:
        """Spawn the party, run ``protocol(channel)``, reconcile, clean up."""
        context = self._mp_context()
        driver_end, party_end = channel_pair(
            timeout=self.timeout, parties=("driver", str(config["session_key"]))
        )
        process = context.Process(
            target=party_main,
            args=(party_end, config, private_values, stand_in),
            daemon=True,
        )
        process.start()
        # The child owns its endpoint now; with fork the parent must drop its
        # duplicate so a dead child reads as EOF, not an open socket.
        party_end.close()
        try:
            self._recv(driver_end, (FrameKind.CONTROL,))  # ready
            result = protocol(driver_end)
            self._send(driver_end, FrameKind.CONTROL, b"done")
            self._recv(driver_end, (FrameKind.CONTROL,))  # bye
        except ChannelError as exc:
            process.join(timeout=1.0)
            exitcode = process.exitcode
            raise RemotePartyError(
                f"session {config['session_key']!r} failed: {exc}"
                + (f" [party exit code {exitcode}]" if exitcode not in (None, 0) else "")
            ) from exc
        finally:
            driver_end.close()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join(timeout=1.0)
        stats = driver_end.stats
        by_kind = {
            name: stats.by_kind_sent.get(name, 0) + stats.by_kind_received.get(name, 0)
            for name in sorted(set(stats.by_kind_sent) | set(stats.by_kind_received))
        }
        protocol_bytes = sum(by_kind.get(name, 0) for name in PROTOCOL_KINDS)
        control_bytes = sum(
            size for name, size in by_kind.items() if name not in PROTOCOL_KINDS
        )
        report = TransportReport(
            frames=stats.frames_sent + stats.frames_received,
            protocol_payload_bytes=protocol_bytes,
            analytic_payload_bytes=int(config["analytic_bytes"]),
            control_payload_bytes=control_bytes,
            wire_bytes=stats.wire_bytes_sent + stats.wire_bytes_received,
            by_kind=by_kind,
        )
        obs.add_counter("transport.sessions")
        obs.add_counter("transport.wire_bytes", report.wire_bytes)
        if report.protocol_payload_bytes != report.analytic_payload_bytes:
            raise MeasuredCostMismatch(
                f"session {config['session_key']!r}: measured protocol bytes "
                f"{report.protocol_payload_bytes} != analytic "
                f"{report.analytic_payload_bytes} "
                f"(by kind: {report.by_kind})"
            )
        return result, report

    def _send(self, channel: PartyChannel, kind: FrameKind, *buffers) -> None:
        size = channel.send(kind, *buffers)
        if self.ledger is not None:
            self.ledger.record_transport_frame(
                DRIVER_PARTY, REMOTE_PARTY, kind.name,
                size, size + FRAME_OVERHEAD_BYTES, description="secure-transport",
            )

    def _recv(self, channel: PartyChannel, expected) -> Tuple[FrameKind, memoryview]:
        kind, payload = channel.recv(expected=expected)
        if self.ledger is not None:
            self.ledger.record_transport_frame(
                REMOTE_PARTY, DRIVER_PARTY, kind.name,
                len(payload), len(payload) + FRAME_OVERHEAD_BYTES, description="secure-transport",
            )
        return kind, payload

    # -- comparison session -------------------------------------------- #
    def _fetch_leaf_shares(self, channel: PartyChannel, stand_in: bytes, left_blocks: np.ndarray):
        """The kernel's leaf source over the wire: party B's ``(greater, equal)``.

        Every block row's choices go out as one ``CMP_CHOICES`` frame; party
        B answers with one ``CMP_RESPONSE`` per row, and the driver unpacks
        row r while the party computes row r + 1.  Then the combine tree's
        modeled Beaver bytes go out as stand-in ``CMP_AND`` frames: one per
        level, 1 byte per gate per comparison, each a slice of ``stand_in``.
        """
        width, count = left_blocks.shape
        head_bytes, packed = _response_layout(count)
        greater = np.empty(left_blocks.shape, dtype=bool)
        equal = np.empty(left_blocks.shape, dtype=bool)
        self._send(channel, FrameKind.CMP_CHOICES, left_blocks)
        for row in range(width):
            _, payload = self._recv(channel, (FrameKind.CMP_RESPONSE,))
            if len(payload) != RESPONSE_BYTES * count:
                raise FrameCorruption(
                    f"CMP_RESPONSE carries {len(payload)} bytes, "
                    f"expected {RESPONSE_BYTES * count}"
                )
            shares = np.frombuffer(payload, dtype=np.uint8, offset=head_bytes)
            greater[row] = np.unpackbits(shares[:packed], count=count)
            equal[row] = np.unpackbits(shares[packed:], count=count)
        stand_ins = memoryview(stand_in)
        while width > 1:
            self._send(channel, FrameKind.CMP_AND, stand_ins[: width // 2 * count])
            width -= width // 2
        return greater, equal

    def compare_batch(self, left, right, session_key: str = "cmp-session") -> RemoteComparisonOutcome:
        """Run ``left[i] >= right[i]`` with ``right`` held by the remote party.

        Bit-for-bit equivalent to
        ``SecureComparator(...).compare_batch(left, right, execute=True)``
        because it *is* that kernel
        (:meth:`~repro.crypto.secure_compare.SecureComparator.execute_batch`
        and ``charge_batch``) with party B's leaf shares fetched over the
        wire: same outcome bits, same accountant counters and capped log, no
        RNG draws (table OTs need no masking randomness), and — when a
        ledger is attached — the same canonical ``SECURE_COMPARISON``
        message charge as the in-process callers, with the physical frames
        recorded in the frame table only.  An empty batch starts no
        session, and a batch whose widest frame would exceed
        :data:`~repro.crypto.channel.MAX_FRAME_BYTES` raises ``ValueError``
        before any process starts.
        """
        left = operand_array(left, "left", self.bit_width)
        right = operand_array(right, "right", self.bit_width)
        if left.ndim != 1 or left.shape != right.shape:
            raise ValueError("compare_batch expects two 1-D arrays of equal length")
        count = int(left.shape[0])
        cost = comparison_cost(self.bit_width, block_bits=SecureComparator.BLOCK_BITS)
        if count == 0:
            return RemoteComparisonOutcome(
                np.zeros(0, dtype=bool), cost, TransportReport(0, 0, 0, 0, 0, {})
            )
        # The widest frame is a block row's response or the batch's choices.
        per_comparison = max(RESPONSE_BYTES, cost.num_blocks)
        if count * per_comparison > MAX_FRAME_BYTES:
            raise ValueError(
                f"a batch of {count} {self.bit_width}-bit comparisons needs a frame of "
                f"{count * per_comparison} bytes, above the {MAX_FRAME_BYTES}-byte cap; "
                f"the largest batch at this width is {MAX_FRAME_BYTES // per_comparison}"
            )
        config = {
            "session_key": session_key,
            "count": count,
            "bit_width": self.bit_width,
            "analytic_bytes": count * (cost.bits // 8),
        }

        def protocol(channel: PartyChannel):
            with obs.span("transport.compare", count=count, bit_width=self.bit_width):
                return self._comparator.execute_batch(
                    left, partial(self._fetch_leaf_shares, channel, stand_in)
                )

        stand_in = _stand_in(count, self.bit_width)  # before the party forks
        outcomes, report = self._run_session(
            config, right.astype("<u8").tobytes(), stand_in, protocol
        )
        self._comparator.charge_batch(count)
        if self.ledger is not None:
            charge_comparison_ledger(self.ledger, count, cost, DRIVER_PARTY, REMOTE_PARTY)
        return RemoteComparisonOutcome(left_ge_right=outcomes, cost=cost, report=report)


def charge_comparison_ledger(
    ledger,
    count: int,
    cost: ComparisonCost,
    left_party: int,
    right_party: int,
    description: str = "secure-comparison",
) -> None:
    """Charge a comparison batch's modeled traffic to the ledger.

    One ``SECURE_COMPARISON`` message per direction per comparison at
    ``max(1, cost.bits // 8)`` bytes — the same shape the in-process
    callers (e.g. the greedy kernel) charge, factored here so the remote
    driver and any in-process twin charge identically and their canonical
    transcripts stay comparable.  Two blocks, ``left → right`` then
    ``right → left``, every column of both stride-0: a batch costs the
    ledger a few hundred bytes whatever ``count`` is.
    """
    size = constant_column(max(1, cost.bits // 8), count)
    rounds = constant_column(ledger.current_round, count)
    left, right = constant_column(left_party, count), constant_column(right_party, count)
    for senders, recipients in ((left, right), (right, left)):
        ledger.send_many(
            senders, recipients, MessageKind.SECURE_COMPARISON, size, rounds,
            description=description,
        )
