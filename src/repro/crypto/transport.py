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

Because the driver draws exactly the pad blocks and charges exactly the
canonical transcript patterns the in-process kernels do, a remote session is
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
``CONTROL`` handshakes (hello / result reveal / goodbye) and ``OBS``
snapshots are *not* protocol traffic; they are reported separately and
excluded from the reconciliation, as is the channel's fixed per-frame
header (:data:`~repro.runtime.channel.FRAME_OVERHEAD_BYTES`).

Failure model
-------------
A party killed mid-session (e.g. by a :class:`~repro.runtime.worker.ChaosConfig`
schedule — see :func:`chaos_comparison_probe`) surfaces on the driver as a
typed :class:`RemotePartyError` (wrapping the channel's timeout/EOF error),
never a hang: every channel receive is deadline-bounded.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from dataclasses import dataclass
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
from ..runtime.worker import ChaosConfig, chaos_action
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
    (handshakes, result reveal, obs snapshots); ``wire_bytes`` is everything
    including the per-frame channel header.
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
    remote_obs: Optional[dict] = None


@dataclass(frozen=True)
class RemoteOTOutcome:
    """Result of a 1-out-of-2 OT batch executed across the process boundary."""

    chosen_messages: np.ndarray
    message_bits: int
    report: TransportReport
    remote_obs: Optional[dict] = None


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
def party_main(
    channel: PartyChannel,
    config: dict,
    private_values: bytes,
    chaos: Optional[ChaosConfig] = None,
    trace: bool = False,
) -> None:
    """Serve one secure session as the remote party, then exit.

    ``config`` carries the public session parameters (op, count, widths);
    ``private_values`` the party's own operands, delivered out-of-band via
    process spawn arguments — private inputs never cross the channel.

    A :class:`~repro.runtime.worker.ChaosConfig` schedule is evaluated
    before every frame this party sends (``chaos_action`` over the session
    key and step index): a ``crash`` draw hard-kills the process mid-protocol
    with ``os._exit``, exactly like a SIGKILL, which the driver must surface
    as a typed error.
    """
    # Like runtime workers: never inherit the parent's ambient tracer.
    obs.set_tracer(None)
    session_key = str(config.get("session_key", "secure-session"))
    step = 0

    def guard_send(kind: FrameKind, payload: bytes) -> None:
        nonlocal step
        step += 1
        if chaos_action(chaos, f"{session_key}/step-{step}", 1) == "crash":
            os._exit(86)
        channel.send(kind, payload)

    try:
        if trace:
            with obs.tracing(process=f"party/{session_key}") as tracer:
                with obs.span("transport.party", op=config.get("op", "?")):
                    _serve_session(channel, config, private_values, guard_send)
                snapshot = tracer.snapshot()
            guard_send(FrameKind.OBS, json.dumps(snapshot).encode("utf-8"))
        else:
            _serve_session(channel, config, private_values, guard_send)
        guard_send(FrameKind.CONTROL, b"bye")
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


def _serve_session(channel, config, private_values, send) -> None:
    op = config["op"]
    if op == "compare":
        _serve_comparison(channel, config, private_values, send)
    elif op == "ot":
        _serve_ot(channel, config, private_values, send)
    else:
        raise ValueError(f"unknown session op {op!r}")


def _serve_comparison(channel, config, private_values, send) -> None:
    """Party B of the millionaires' protocol: holds ``right``, serves tables.

    Per big-endian block column the driver sends its choice blocks
    (``CMP_CHOICES``); this party evaluates the greater-than and equality
    truth tables of its own block values at those choices — exactly the
    lookups :meth:`~repro.crypto.secure_compare.SecureComparator._block_compare_batch`
    performs through ``transfer_packed_table_batch`` — and responds with the two
    packed share columns (``CMP_RESPONSE``), padded with stand-in bytes to
    the analytic size of the two 1-out-of-2^m OTs.  The combine tree's
    ``CMP_AND`` traffic is received and discarded (its information content
    is a local computation in the collapsed simulation; the frames exist to
    realise the modeled Beaver-triple bytes on a real wire).
    """
    count = int(config["count"])
    bit_width = int(config["bit_width"])
    block_bits = int(config["block_bits"])
    right = np.frombuffer(private_values, dtype="<u8").astype(np.uint64)
    if right.shape[0] != count:
        raise ValueError("private operand count mismatch")
    cost = comparison_cost(bit_width, block_bits=block_bits)
    per_ot_bytes = ((1 << block_bits) + 128) // 8
    mask = np.uint64((1 << block_bits) - 1)

    send(FrameKind.CONTROL, b"ready")
    for index in reversed(range(cost.num_blocks)):
        _, payload = channel.recv(expected=(FrameKind.CMP_CHOICES,))
        choices = np.frombuffer(payload, dtype=np.uint8, count=count).astype(np.uint64)
        right_blocks = (right >> np.uint64(index * block_bits)) & mask
        greater = choices > right_blocks
        equal = choices == right_blocks
        body = _pack_bits(greater) + _pack_bits(equal)
        budget = 2 * per_ot_bytes * count - count
        send(FrameKind.CMP_RESPONSE, body + b"\x00" * (budget - len(body)))
    width = cost.num_blocks
    while width > 1:
        channel.recv(expected=(FrameKind.CMP_AND,))
        width = width // 2 + width % 2
    channel.recv(expected=(FrameKind.CONTROL,))  # done


def _serve_ot(channel, config, private_values, send) -> None:
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

    send(FrameKind.CONTROL, b"ready")
    send(FrameKind.OT_REQUEST, _pack_values(choices.astype(np.uint64), 8))
    _, payload = channel.recv(expected=(FrameKind.OT_RESPONSE,))
    masked_zero = _unpack_values(payload, count, bytes_per)
    offset = count * bytes_per
    masked_one = _unpack_values(payload[offset:], count, bytes_per)
    pads = _unpack_values(payload[2 * offset:], count, 8)
    masked = np.where(choices.astype(bool), masked_one, masked_zero)
    learned = masked ^ pads
    send(FrameKind.CONTROL, _pack_values(learned, 8))
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
    to the ledger's transport side-list
    (:meth:`~repro.federation.network.CommunicationLedger.record_transport_frame`),
    keeping the canonical transcript untouched.
    """

    def __init__(
        self,
        bit_width: int = 32,
        accountant: Optional[TranscriptAccountant] = None,
        rng: Optional[np.random.Generator] = None,
        timeout: float = DEFAULT_SESSION_TIMEOUT,
        chaos: Optional[ChaosConfig] = None,
        ledger=None,
        left_party: int = 0,
        right_party: int = 1,
        trace_remote: bool = False,
        start_method: Optional[str] = None,
    ) -> None:
        if bit_width <= 0 or bit_width > 64:
            raise ValueError("bit_width must be in [1, 64]")
        self.bit_width = bit_width
        self.accountant = accountant if accountant is not None else TranscriptAccountant()
        self._ot = ObliviousTransfer(accountant=self.accountant, rng=rng)
        self.timeout = timeout
        self.chaos = chaos
        self.ledger = ledger
        self.left_party = left_party
        self.right_party = right_party
        self.trace_remote = trace_remote
        self.start_method = start_method

    # -- infrastructure ------------------------------------------------ #
    def _mp_context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        # Mirror the runtime executor's choice: fork on Linux (cheap, keeps
        # warm imports), the platform default elsewhere.
        if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def precompute_pads(self, count: int, message_bits: int = 32) -> int:
        """Bulk-draw OT pads ahead of a session (see
        :meth:`ObliviousTransfer.precompute_pads`)."""
        return self._ot.precompute_pads(count, message_bits)

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

    def _run_session(self, config: dict, private_values: bytes, protocol) -> Tuple[object, TransportReport, Optional[dict]]:
        """Spawn the party, run ``protocol(channel)``, reconcile, clean up."""
        context = self._mp_context()
        driver_end, party_end = channel_pair(
            timeout=self.timeout, parties=("driver", str(config["session_key"]))
        )
        process = context.Process(
            target=party_main,
            args=(party_end, config, private_values, self.chaos, self.trace_remote),
            daemon=True,
        )
        self._start_party(process)
        # The child owns its endpoint now; with fork the parent must drop its
        # duplicate so a dead child reads as EOF, not an open pipe.
        party_end.close()
        remote_obs: Optional[dict] = None
        try:
            kind, payload = self._recv(driver_end, (FrameKind.CONTROL,), config)
            result = protocol(driver_end)
            self._send(driver_end, FrameKind.CONTROL, b"done")
            while True:
                kind, payload = self._recv(
                    driver_end, (FrameKind.CONTROL, FrameKind.OBS), config
                )
                if kind is FrameKind.OBS:
                    remote_obs = json.loads(payload.decode("utf-8"))
                    continue
                break
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
        return result, report, remote_obs

    def _send(self, channel: PartyChannel, kind: FrameKind, payload: bytes) -> None:
        size = channel.send(kind, payload)
        if self.ledger is not None:
            self.ledger.record_transport_frame(
                self.left_party, self.right_party, kind.name,
                size, size + 9, description="secure-transport",
            )

    def _recv(self, channel: PartyChannel, expected, config) -> Tuple[FrameKind, bytes]:
        kind, payload = channel.recv(expected=expected)
        if self.ledger is not None:
            self.ledger.record_transport_frame(
                self.right_party, self.left_party, kind.name,
                len(payload), len(payload) + 9, description="secure-transport",
            )
        return kind, payload

    # -- comparison session -------------------------------------------- #
    def compare_batch(self, left, right, session_key: str = "cmp-session") -> RemoteComparisonOutcome:
        """Run ``left[i] >= right[i]`` with ``right`` held by the remote party.

        Bit-for-bit equivalent to
        ``SecureComparator(...).compare_batch(left, right, execute=True)``:
        same outcome bits (the leaf shares received over the wire are the
        same table lookups, the combine tree is the same column recursion),
        same accountant counters and capped log (the canonical
        per-comparison pattern of :func:`comparison_cost` is charged, as the
        in-process batch kernel does), no RNG draws (table OTs need no
        masking randomness), and — when a ledger is attached — the same
        canonical ``SECURE_COMPARISON`` message charge as the in-process
        callers, with the physical frames recorded on the transport
        side-list only.
        """
        left = operand_array(left, "left", self.bit_width)
        right = operand_array(right, "right", self.bit_width)
        if left.ndim != 1 or left.shape != right.shape:
            raise ValueError("compare_batch expects two 1-D arrays of equal length")
        count = int(left.shape[0])
        block_bits = SecureComparator.BLOCK_BITS
        cost = comparison_cost(self.bit_width, block_bits=block_bits)
        config = {
            "op": "compare",
            "session_key": session_key,
            "count": count,
            "bit_width": self.bit_width,
            "block_bits": block_bits,
            "analytic_bytes": count * (cost.bits // 8),
        }
        per_ot_bytes = ((1 << block_bits) + 128) // 8
        mask = np.uint64((1 << block_bits) - 1)

        def protocol(channel: PartyChannel):
            greater = np.zeros((count, cost.num_blocks), dtype=bool)
            equal = np.zeros((count, cost.num_blocks), dtype=bool)
            packed = -(-count // 8)
            with obs.span("transport.compare", count=count, bit_width=self.bit_width):
                for column, index in enumerate(reversed(range(cost.num_blocks))):
                    blocks = (left >> np.uint64(index * block_bits)) & mask
                    self._send(
                        channel, FrameKind.CMP_CHOICES,
                        blocks.astype(np.uint8).tobytes(),
                    )
                    _, payload = self._recv(channel, (FrameKind.CMP_RESPONSE,), config)
                    greater[:, column] = _unpack_bits(payload[:packed], count)
                    equal[:, column] = _unpack_bits(payload[packed:2 * packed], count)
                # The same logarithmic AND/OR combine tree as the in-process
                # batch kernel, with the modeled Beaver bytes realised as
                # stand-in CMP_AND frames (1 byte per gate per comparison).
                while greater.shape[1] > 1:
                    width = greater.shape[1]
                    paired = width - (width % 2)
                    gates = paired // 2
                    self._send(channel, FrameKind.CMP_AND, b"\x00" * (gates * count))
                    high_greater = greater[:, 0:paired:2]
                    high_equal = equal[:, 0:paired:2]
                    low_greater = greater[:, 1:paired:2]
                    low_equal = equal[:, 1:paired:2]
                    next_greater = high_greater | (high_equal & low_greater)
                    next_equal = high_equal & low_equal
                    if width % 2 == 1:
                        next_greater = np.concatenate(
                            [next_greater, greater[:, -1:]], axis=1
                        )
                        next_equal = np.concatenate([next_equal, equal[:, -1:]], axis=1)
                    greater, equal = next_greater, next_equal
            return greater[:, 0] | equal[:, 0]

        outcomes, report, remote_obs = self._run_session(
            config, right.astype("<u8").tobytes(), protocol
        )
        # Canonical accounting: identical to SecureComparator.compare_batch.
        self.accountant.ot_invocations += cost.ot_invocations * count
        self.accountant.record_pattern(cost.pattern, count)
        self.accountant.comparisons += count
        obs.add_counter("crypto.ot_invocations", cost.ot_invocations * count)
        obs.add_counter("crypto.comparisons", count)
        if self.ledger is not None and count:
            charge_comparison_ledger(
                self.ledger, count, cost, self.left_party, self.right_party
            )
        self._attach_remote(remote_obs)
        return RemoteComparisonOutcome(
            left_ge_right=outcomes, cost=cost, report=report, remote_obs=remote_obs
        )

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
        block draw on the driver's RNG (pool-aware — see
        :meth:`precompute_pads`), the accountant is charged the identical
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
                _, payload = self._recv(channel, (FrameKind.OT_REQUEST,), config)
                wire_choices = _unpack_values(payload, count, 8).astype(np.int64)
                # Same block draw as the in-process kernel (pool-aware).
                pads = self._ot._take_pads(count, message_bits)
                pads = pads.astype(np.uint64)
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
                _, reveal = self._recv(channel, (FrameKind.CONTROL,), config)
            return _unpack_values(reveal, count, 8)

        learned, report, remote_obs = self._run_session(
            config, choices.astype(np.uint8).tobytes(), protocol
        )
        self.accountant.ot_invocations += count
        self.accountant.record_pattern((("ot", 2 * message_bits + 128),), count)
        self._attach_remote(remote_obs)
        results = learned if wide else learned.astype(np.int64)
        return RemoteOTOutcome(
            chosen_messages=results,
            message_bits=message_bits,
            report=report,
            remote_obs=remote_obs,
        )

    @staticmethod
    def _attach_remote(remote_obs: Optional[dict]) -> None:
        tracer = obs.current_tracer()
        if tracer is not None and remote_obs is not None:
            tracer.attach_remote(remote_obs)


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


def chaos_comparison_probe(
    count: int = 16,
    bit_width: int = 16,
    seed: int = 0,
    crash_rate: float = 1.0,
    timeout: float = 5.0,
) -> dict:
    """Run one small remote comparison under a chaos schedule (runtime probe).

    Importable-by-name for
    :class:`~repro.runtime.items.CallableItem`, so the runtime's chaos tests
    can dispatch a real two-party session into a worker: with
    ``crash_rate=1.0`` the party is hard-killed before its first send and
    the driver's typed :class:`RemotePartyError` propagates out of the
    worker as a ``FailedAttempt`` — never a hang, because every channel
    receive is deadline-bounded.  Returns the outcome summary when the
    session survives the schedule.
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << bit_width, size=(2, count))
    driver = RemoteParty(
        bit_width=bit_width,
        timeout=timeout,
        chaos=ChaosConfig(seed=seed, crash_rate=crash_rate),
    )
    outcome = driver.compare_batch(
        values[0], values[1], session_key=f"chaos-probe-{seed}"
    )
    return {
        "count": count,
        "true_fraction": float(outcome.left_ge_right.mean()),
        "wire_bytes": outcome.report.wire_bytes,
    }
