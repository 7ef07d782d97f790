"""Two-party secure execution over a real transport channel.

Everything below :class:`~repro.crypto.secure_compare.SecureComparator` was
built (PR 5) as a *single-process* simulation: both protocol parties live in
one interpreter, "communication" is a function call, and cost is what the
analytic :func:`~repro.crypto.secure_compare.comparison_cost` model says it
should be.  This module runs the same protocols across a real process
boundary so the cost becomes *measured*:

* a party process (:func:`party_main`) holds one side's private operands and
  serves the sender/receiver half of the protocol over a
  :class:`~repro.runtime.channel.PartyChannel`;
* a :class:`RemoteParty` driver holds the other side's operands **and all of
  the session's bookkeeping** — the RNG, the
  :class:`~repro.crypto.oblivious_transfer.TranscriptAccountant`, and the
  optional :class:`~repro.federation.network.CommunicationLedger`.

This module is **framing and reconciliation only**.  The millionaires'
protocol exists once, in :class:`~repro.crypto.secure_compare.SecureComparator`:
the driver hands its ``execute_batch`` kernel a leaf source that fetches
party B's shares as ``CMP_CHOICES`` / ``CMP_RESPONSE`` frames, the party
answers each of them through the comparator's ``leaf_shares`` lookup, and
the comparator's ``charge_batch`` charges the accountant.  Because both
deployments run that one kernel, and the OT driver draws exactly the pad
block the in-process ``transfer_batch`` does, a remote session is
**bit-for-bit equivalent** to the in-process simulation in results,
accountant counters and capped log, canonical ledger transcript, and RNG
stream state.  The equivalence is asserted by ``tests/test_secure_transport.py``.

Measured-vs-analytic contract
-----------------------------
Frame payloads are sized so that the *protocol* frames of a session (the
``OT_*`` / ``CMP_*`` kinds) total **exactly** the bytes the analytic model
charges — ``count * comparison_cost(bit_width).bits // 8`` for a comparison
batch, ``count * (2 * message_bits + 128) // 8`` for an OT batch.  Where the
analytic model counts material this simulation does not need to move (base-OT
masks, Beaver-triple shares), the frames carry deterministic stand-in bytes
of the modeled size, so the wire is an honest physical realisation of the
model rather than a smaller cousin of it.  :meth:`RemoteParty.compare_batch`
and :meth:`RemoteParty.transfer_batch` re-derive the analytic total and
raise :class:`MeasuredCostMismatch` if the bytes that actually crossed the
channel diverge — the contract fails loudly, never silently.  Session
``CONTROL`` handshakes (hello / result reveal / goodbye) are *not* protocol
traffic; they are reported separately and excluded from the reconciliation,
as is the channel's fixed per-frame header
(:data:`~repro.runtime.channel.FRAME_OVERHEAD_BYTES`).

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
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..federation.events import MessageKind
from ..runtime.channel import (
    ChannelError,
    FrameKind,
    PartyChannel,
    channel_pair,
)
from .oblivious_transfer import ObliviousTransfer, TranscriptAccountant
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

    ``protocol_payload_bytes`` covers only the ``OT_*`` / ``CMP_*`` frames
    the analytic model prices (and equals ``analytic_payload_bytes`` — the
    driver raises otherwise); ``control_payload_bytes`` is session framing
    (handshakes, result reveal); ``wire_bytes`` is everything including the
    per-frame channel header.
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


@dataclass(frozen=True)
class RemoteOTOutcome:
    """Result of a 1-out-of-2 OT batch executed across the process boundary."""

    chosen_messages: np.ndarray
    message_bits: int
    report: TransportReport


#: Ledger ids of the two ends of a session in the ledger's frame table.
DRIVER_PARTY, REMOTE_PARTY = 0, 1

#: Protocol frame kinds priced by the analytic model (everything else is
#: session overhead).
PROTOCOL_KINDS = (
    FrameKind.OT_REQUEST.name,
    FrameKind.OT_RESPONSE.name,
    FrameKind.CMP_CHOICES.name,
    FrameKind.CMP_RESPONSE.name,
    FrameKind.CMP_AND.name,
)


# --------------------------------------------------------------------- #
# Byte packing helpers (shared by both parties)
# --------------------------------------------------------------------- #
def _pack_values(values: np.ndarray, bytes_per: int) -> bytes:
    """Little-endian pack of uint64 ``values`` at ``bytes_per`` bytes each."""
    full = np.ascontiguousarray(values, dtype="<u8")
    view = full.view(np.uint8).reshape(-1, 8)
    return view[:, :bytes_per].tobytes()


def _unpack_values(payload: bytes, count: int, bytes_per: int) -> np.ndarray:
    """Inverse of :func:`_pack_values`: ``count`` uint64 values."""
    raw = np.frombuffer(payload, dtype=np.uint8, count=count * bytes_per)
    full = np.zeros((count, 8), dtype=np.uint8)
    full[:, :bytes_per] = raw.reshape(count, bytes_per)
    return full.reshape(-1).view("<u8").astype(np.uint64)


def _pack_bits(flags: np.ndarray) -> bytes:
    return np.packbits(flags.astype(np.uint8)).tobytes()


def _unpack_bits(payload: bytes, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count)
    return bits.astype(bool)


def ot_payload_bytes(message_bits: int) -> int:
    """Analytic wire bytes of one 1-out-of-2 OT (``message_bits % 8 == 0``)."""
    if message_bits % 8 != 0:
        raise ValueError("remote OT requires message_bits divisible by 8")
    return (2 * message_bits + 128) // 8


# --------------------------------------------------------------------- #
# Party process (the far side of the channel)
# --------------------------------------------------------------------- #
def party_main(channel: PartyChannel, config: dict, private_values: bytes) -> None:
    """Serve one secure session as the remote party, then exit.

    ``config`` carries the public session parameters (op, count, widths);
    ``private_values`` the party's own operands, delivered out-of-band via
    process spawn arguments — private inputs never cross the channel.
    """
    # Like runtime workers: never inherit the parent's ambient tracer.
    obs.set_tracer(None)
    try:
        _serve_session(channel, config, private_values)
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


def _serve_session(channel, config, private_values) -> None:
    op = config["op"]
    if op == "compare":
        _serve_comparison(channel, config, private_values)
    elif op == "ot":
        _serve_ot(channel, config, private_values)
    else:
        raise ValueError(f"unknown session op {op!r}")


def _serve_comparison(channel, config, private_values) -> None:
    """Party B of the millionaires' protocol: holds ``right``, serves tables.

    Per big-endian block row the driver sends its choice blocks
    (``CMP_CHOICES``, one byte per comparison); this party answers them
    through :meth:`~repro.crypto.secure_compare.SecureComparator.leaf_shares`
    — the packed-table lookup the in-process party B performs, whose range
    check rejects a choice byte outside the table — and responds with the
    two packed share rows (``CMP_RESPONSE``), padded with stand-in bytes to
    the analytic size of the two 1-out-of-2^m OTs.  The combine tree's
    ``CMP_AND`` traffic is received and discarded (its information content
    is a local computation in the collapsed simulation; the frames exist to
    realise the modeled Beaver-triple bytes on a real wire).
    """
    count = int(config["count"])
    comparator = SecureComparator(bit_width=int(config["bit_width"]))
    right = np.frombuffer(private_values, dtype="<u8").astype(np.uint64)
    if right.shape[0] != count:
        raise ValueError("private operand count mismatch")
    right_blocks = comparator.block_rows(right)
    # The two OTs of a block, less the choice byte the driver already sent.
    per_ot_bytes = ((1 << comparator.BLOCK_BITS) + 128) // 8
    budget = 2 * per_ot_bytes * count - count

    channel.send(FrameKind.CONTROL, b"ready")
    for blocks in right_blocks:
        _, payload = channel.recv(expected=(FrameKind.CMP_CHOICES,))
        if len(payload) != count:
            raise ValueError(f"CMP_CHOICES carries {len(payload)} bytes for {count} comparisons")
        greater, equal = comparator.leaf_shares(np.frombuffer(payload, dtype=np.uint8), blocks)
        body = _pack_bits(greater) + _pack_bits(equal)
        channel.send(FrameKind.CMP_RESPONSE, body + b"\x00" * (budget - len(body)))
    width = right_blocks.shape[0]
    while width > 1:
        channel.recv(expected=(FrameKind.CMP_AND,))
        width -= width // 2
    channel.recv(expected=(FrameKind.CONTROL,))  # done


def _serve_ot(channel, config, private_values) -> None:
    """OT receiver: holds the choice bits, learns the chosen messages.

    Sends its choices in a u64-per-position ``OT_REQUEST`` (the 64-bit slot
    stands in for the receiver half of the base-OT material the analytic
    128-bit term prices), unmasks the driver's ``OT_RESPONSE``, and reveals
    the learned values back over ``CONTROL`` so the driver can return them —
    the reveal is session overhead, not protocol traffic.
    """
    count = int(config["count"])
    message_bits = int(config["message_bits"])
    bytes_per = message_bits // 8
    choices = np.frombuffer(private_values, dtype=np.uint8, count=count).astype(np.int64)

    channel.send(FrameKind.CONTROL, b"ready")
    channel.send(FrameKind.OT_REQUEST, _pack_values(choices.astype(np.uint64), 8))
    _, payload = channel.recv(expected=(FrameKind.OT_RESPONSE,))
    masked_zero = _unpack_values(payload, count, bytes_per)
    offset = count * bytes_per
    masked_one = _unpack_values(payload[offset:], count, bytes_per)
    pads = _unpack_values(payload[2 * offset:], count, 8)
    masked = np.where(choices.astype(bool), masked_one, masked_zero)
    learned = masked ^ pads
    channel.send(FrameKind.CONTROL, _pack_values(learned, 8))
    channel.recv(expected=(FrameKind.CONTROL,))  # done


# --------------------------------------------------------------------- #
# Driver (owns RNG, accountant, ledger)
# --------------------------------------------------------------------- #
class RemoteParty:
    """Drive secure sessions against a party running in another process.

    The driver is the bookkeeping side: it owns the RNG (pad draws follow
    the exact block-draw contracts of the in-process kernels), the
    :class:`TranscriptAccountant` (charged with the canonical per-operation
    patterns), and optionally a :class:`~repro.federation.network.CommunicationLedger`
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
        rng: Optional[np.random.Generator] = None,
        timeout: float = DEFAULT_SESSION_TIMEOUT,
        ledger=None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self._comparator = SecureComparator(bit_width, accountant=self.accountant, rng=rng)
        self._ot = ObliviousTransfer(accountant=self.accountant, rng=rng)
        self.bit_width = bit_width
        self.timeout = timeout
        self.ledger = ledger

    # -- infrastructure ------------------------------------------------ #
    @staticmethod
    def _mp_context():
        # Mirror the runtime executor's choice: fork on Linux (cheap, keeps
        # warm imports), the platform default elsewhere.
        if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    @staticmethod
    def _start_party(process) -> None:
        """Start the party process, even from inside a daemonic pool worker.

        ``multiprocessing`` forbids daemonic processes from having children
        only as an exit-time join policy; ``_run_session`` joins (and on
        failure terminates) the party within its own scope, so when the
        driver itself runs inside a runtime worker the flag is lifted for
        the duration of the start call.
        """
        current = multiprocessing.current_process()
        config = getattr(current, "_config", None)
        if isinstance(config, dict) and config.get("daemon"):
            config["daemon"] = False
            try:
                process.start()
            finally:
                config["daemon"] = True
        else:
            process.start()

    def _run_session(self, config: dict, private_values: bytes, protocol) -> Tuple[object, TransportReport]:
        """Spawn the party, run ``protocol(channel)``, reconcile, clean up."""
        context = self._mp_context()
        driver_end, party_end = channel_pair(
            timeout=self.timeout, parties=("driver", str(config["session_key"]))
        )
        process = context.Process(
            target=party_main,
            args=(party_end, config, private_values),
            daemon=True,
        )
        self._start_party(process)
        # The child owns its endpoint now; with fork the parent must drop its
        # duplicate so a dead child reads as EOF, not an open pipe.
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
                f"session {config['session_key']!r} ({config['op']}) failed: {exc}"
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

    def _send(self, channel: PartyChannel, kind: FrameKind, payload: bytes) -> None:
        size = channel.send(kind, payload)
        if self.ledger is not None:
            self.ledger.record_transport_frame(
                DRIVER_PARTY, REMOTE_PARTY, kind.name,
                size, size + 9, description="secure-transport",
            )

    def _recv(self, channel: PartyChannel, expected) -> Tuple[FrameKind, bytes]:
        kind, payload = channel.recv(expected=expected)
        if self.ledger is not None:
            self.ledger.record_transport_frame(
                REMOTE_PARTY, DRIVER_PARTY, kind.name,
                len(payload), len(payload) + 9, description="secure-transport",
            )
        return kind, payload

    # -- comparison session -------------------------------------------- #
    def _fetch_leaf_shares(self, channel: PartyChannel, left_blocks: np.ndarray):
        """The kernel's leaf source over the wire: party B's ``(greater, equal)``.

        One ``CMP_CHOICES`` / ``CMP_RESPONSE`` exchange per block row, then
        the combine tree's modeled Beaver bytes as stand-in ``CMP_AND``
        frames: one per level, 1 byte per gate per comparison.
        """
        width, count = left_blocks.shape
        greater = np.empty(left_blocks.shape, dtype=bool)
        equal = np.empty(left_blocks.shape, dtype=bool)
        packed = -(-count // 8)
        for row, choices in enumerate(left_blocks):
            self._send(channel, FrameKind.CMP_CHOICES, choices.tobytes())
            _, payload = self._recv(channel, (FrameKind.CMP_RESPONSE,))
            greater[row] = _unpack_bits(payload[:packed], count)
            equal[row] = _unpack_bits(payload[packed:2 * packed], count)
        while width > 1:
            self._send(channel, FrameKind.CMP_AND, b"\x00" * (width // 2 * count))
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
        session.
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
        config = {
            "op": "compare",
            "session_key": session_key,
            "count": count,
            "bit_width": self.bit_width,
            "analytic_bytes": count * (cost.bits // 8),
        }

        def protocol(channel: PartyChannel):
            with obs.span("transport.compare", count=count, bit_width=self.bit_width):
                return self._comparator.execute_batch(
                    left, partial(self._fetch_leaf_shares, channel)
                )

        outcomes, report = self._run_session(config, right.astype("<u8").tobytes(), protocol)
        self._comparator.charge_batch(count)
        if self.ledger is not None:
            charge_comparison_ledger(self.ledger, count, cost, DRIVER_PARTY, REMOTE_PARTY)
        return RemoteComparisonOutcome(left_ge_right=outcomes, cost=cost, report=report)

    # -- OT session ----------------------------------------------------- #
    def transfer_batch(
        self,
        messages_zero,
        messages_one,
        remote_choices,
        message_bits: int = 32,
        session_key: str = "ot-session",
    ) -> RemoteOTOutcome:
        """Run a 1-out-of-2 OT batch: this driver is the sender, the remote
        party holds the choice bits and learns the chosen messages.

        Bit-for-bit equivalent to
        :meth:`ObliviousTransfer.transfer_batch`: pads come from the same
        block draw on the driver's RNG, the accountant is charged the identical
        ``("ot", 2 * message_bits + 128)`` pattern, and the values the
        remote party unmasks equal the in-process results.  The remote
        reveal of the learned values (so this method can return them) rides
        on ``CONTROL`` frames, outside the priced protocol traffic.
        """
        bytes_per = message_bits // 8
        per_position = ot_payload_bytes(message_bits)  # validates divisibility
        messages_zero = ObliviousTransfer._operand_array(
            messages_zero, "message_zero", message_bits
        )
        messages_one = ObliviousTransfer._operand_array(
            messages_one, "message_one", message_bits
        )
        choices = np.asarray(remote_choices, dtype=np.int64)
        if (
            messages_zero.ndim != 1
            or messages_zero.shape != messages_one.shape
            or messages_zero.shape != choices.shape
        ):
            raise ValueError("transfer_batch expects three 1-D arrays of equal length")
        if choices.size and not np.isin(choices, (0, 1)).all():
            raise ValueError("choice must be 0 or 1")
        count = int(choices.shape[0])
        wide = messages_zero.dtype == np.uint64
        if count == 0:
            empty = np.zeros(0, dtype=np.uint64 if wide else np.int64)
            report = TransportReport(0, 0, 0, 0, 0, {})
            return RemoteOTOutcome(empty, message_bits, report)
        config = {
            "op": "ot",
            "session_key": session_key,
            "count": count,
            "message_bits": message_bits,
            "analytic_bytes": count * per_position,
        }

        def protocol(channel: PartyChannel):
            with obs.span("transport.ot", count=count, message_bits=message_bits):
                _, payload = self._recv(channel, (FrameKind.OT_REQUEST,))
                wire_choices = _unpack_values(payload, count, 8).astype(np.int64)
                # Same block draw as the in-process kernel.
                pads = self._ot._draw_pad_block(count, message_bits).astype(np.uint64)
                masked_zero = messages_zero.astype(np.uint64) ^ pads[:, 0]
                masked_one = messages_one.astype(np.uint64) ^ pads[:, 1]
                rows = np.arange(count)
                chosen_pads = pads[rows, wire_choices]
                self._send(
                    channel, FrameKind.OT_RESPONSE,
                    _pack_values(masked_zero, bytes_per)
                    + _pack_values(masked_one, bytes_per)
                    + _pack_values(chosen_pads, 8),
                )
                _, reveal = self._recv(channel, (FrameKind.CONTROL,))
            return _unpack_values(reveal, count, 8)

        learned, report = self._run_session(
            config, choices.astype(np.uint8).tobytes(), protocol
        )
        self.accountant.ot_invocations += count
        self.accountant.record_pattern((("ot", 2 * message_bits + 128),), count)
        results = learned if wide else learned.astype(np.int64)
        return RemoteOTOutcome(chosen_messages=results, message_bits=message_bits, report=report)


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
    transcripts stay comparable.
    """
    size_bytes = max(1, cost.bits // 8)
    round_index = ledger.current_round
    forward = np.full(count, left_party, dtype=np.int64)
    backward = np.full(count, right_party, dtype=np.int64)
    ledger.send_many(
        np.concatenate([forward, backward]),
        np.concatenate([backward, forward]),
        MessageKind.SECURE_COMPARISON,
        np.full(2 * count, size_bytes, dtype=np.int64),
        np.full(2 * count, round_index, dtype=np.int64),
        description=description,
    )
