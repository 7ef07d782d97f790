"""Length-framed, CRC-checked transport between two party processes.

The secure-mode kernels in :mod:`repro.crypto` were built (PR 5) as
single-process simulations: both protocol parties live in one interpreter
and "communication" is a Python function call whose cost the
:class:`~repro.crypto.oblivious_transfer.TranscriptAccountant` *models*.
This module supplies the missing physical layer so the two parties can run
as separate OS processes (:mod:`repro.crypto.transport`): a
:class:`PartyChannel` wraps one end of a duplex
:func:`multiprocessing.Pipe` and moves opaque byte payloads as *frames* —

``[length: u32][crc32: u32][kind: u8][payload: length bytes]``

— with a CRC-32 integrity check on every receive, a typed
:class:`FrameKind` tag so protocol steps are self-describing on the wire,
and per-kind byte accounting on both directions.  The 9-byte header is the
channel's own overhead and is reported separately from protocol payload
bytes: the measured-vs-analytic contract (``docs/architecture.md`` §12)
compares *payload* bytes against :func:`~repro.crypto.secure_compare.comparison_cost`,
while ``wire_bytes_*`` tells the true on-the-wire total.

Failure surfaces are typed, never silent:

* :class:`ChannelClosed` — the peer's end is gone (EOF / broken pipe),
  e.g. a chaos-killed party; mapped by callers onto the runtime's
  :class:`~repro.runtime.executor.FailedAttempt` machinery.
* :class:`ChannelTimeout` — no frame within the deadline; every receive is
  bounded, so a dead peer can never hang the driver.
* :class:`FrameCorruption` — CRC mismatch, unknown kind tag, or an
  unexpected frame kind mid-protocol.

The channel is transport only: it never touches RNG streams, accountants,
or ledgers, so layering it under the crypto kernels cannot perturb any
pinned bit-for-bit contract.
"""

from __future__ import annotations

import multiprocessing
import struct
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Optional, Tuple

from .. import obs

#: Frame header: payload length (u32), CRC-32 of payload (u32), kind (u8).
HEADER = struct.Struct("<IIB")

#: Bytes of channel overhead per frame (the header above).
FRAME_OVERHEAD_BYTES = HEADER.size

#: Hard cap on a single frame's payload; a corrupted length field must not
#: make the receiver attempt a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default bound on every receive.  Generous for same-host pipes; the point
#: is that *no* receive is unbounded.
DEFAULT_TIMEOUT_SECONDS = 30.0


class FrameKind(IntEnum):
    """Self-describing tag carried by every frame.

    The OT/comparison kinds mirror the message pattern the analytic
    :func:`~repro.crypto.secure_compare.comparison_cost` model charges, so
    per-kind byte totals line up one-to-one with accountant categories.
    """

    CONTROL = 0       #: session setup / teardown handshakes
    OT_REQUEST = 1    #: receiver -> sender: choice bits / table indices
    OT_RESPONSE = 2   #: sender -> receiver: masked messages + pads
    CMP_CHOICES = 3   #: comparison batch: receiver block choices
    CMP_RESPONSE = 4  #: comparison batch: sender table responses
    CMP_AND = 5       #: comparison batch: AND-combine gate traffic
    # Tags are wire format and never renumbered: 6 stays unassigned.
    ERROR = 7         #: remote party's typed failure report


class ChannelError(RuntimeError):
    """Base class for transport failures."""


class ChannelClosed(ChannelError):
    """The peer's end of the pipe is gone (EOF or broken pipe)."""


class ChannelTimeout(ChannelError):
    """No frame arrived within the receive deadline."""


class FrameCorruption(ChannelError):
    """A frame failed its CRC check or violated the expected protocol."""


@dataclass
class ChannelStats:
    """Byte and frame accounting for one channel endpoint.

    ``payload_bytes_*`` is protocol data only; ``wire_bytes_*`` adds the
    fixed per-frame header.  ``by_kind_*`` maps :class:`FrameKind` names to
    payload bytes so transcripts can be reconciled per protocol step.
    """

    frames_sent: int = 0
    frames_received: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_received: int = 0
    by_kind_sent: Dict[str, int] = field(default_factory=dict)
    by_kind_received: Dict[str, int] = field(default_factory=dict)

    @property
    def wire_bytes_sent(self) -> int:
        return self.payload_bytes_sent + FRAME_OVERHEAD_BYTES * self.frames_sent

    @property
    def wire_bytes_received(self) -> int:
        return self.payload_bytes_received + FRAME_OVERHEAD_BYTES * self.frames_received

    def snapshot(self) -> dict:
        """Plain-dict view for reports and bench payloads."""
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "payload_bytes_sent": self.payload_bytes_sent,
            "payload_bytes_received": self.payload_bytes_received,
            "wire_bytes_sent": self.wire_bytes_sent,
            "wire_bytes_received": self.wire_bytes_received,
            "by_kind_sent": dict(sorted(self.by_kind_sent.items())),
            "by_kind_received": dict(sorted(self.by_kind_received.items())),
        }


class PartyChannel:
    """One endpoint of a framed duplex byte channel between two parties.

    Wraps a :class:`multiprocessing.connection.Connection`; both pipe ends
    are fork- and spawn-picklable, so a channel endpoint can be handed to a
    child process through :class:`multiprocessing.Process` args.
    """

    def __init__(
        self,
        connection,
        party: str,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self._connection = connection
        self.party = party
        self.timeout = timeout
        self.stats = ChannelStats()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, kind: FrameKind, payload: bytes = b"") -> int:
        """Frame ``payload`` under ``kind`` and write it to the pipe.

        Returns the payload byte count (what the measured-vs-analytic
        contract sums); header overhead is tracked in :attr:`stats` but not
        returned, to keep call sites aligned with the analytic model.
        """
        if self._closed:
            raise ChannelClosed(f"{self.party}: channel already closed")
        kind = FrameKind(kind)
        payload = bytes(payload)
        if len(payload) > MAX_FRAME_BYTES:
            raise ValueError(
                f"frame payload of {len(payload)} bytes exceeds cap {MAX_FRAME_BYTES}"
            )
        header = HEADER.pack(len(payload), zlib.crc32(payload), int(kind))
        try:
            self._connection.send_bytes(header + payload)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ChannelClosed(f"{self.party}: peer hung up during send") from exc
        self.stats.frames_sent += 1
        self.stats.payload_bytes_sent += len(payload)
        self.stats.by_kind_sent[kind.name] = (
            self.stats.by_kind_sent.get(kind.name, 0) + len(payload)
        )
        obs.add_counter("channel.frames_sent")
        obs.add_counter("channel.bytes_sent", len(payload) + FRAME_OVERHEAD_BYTES)
        return len(payload)

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #
    def recv(
        self,
        expected: Optional[Tuple[FrameKind, ...]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[FrameKind, bytes]:
        """Receive one frame, verify its CRC, and return ``(kind, payload)``.

        Every receive is bounded by ``timeout`` (falling back to the
        channel default), so a crashed peer surfaces as
        :class:`ChannelTimeout` / :class:`ChannelClosed` rather than a hang.
        With ``expected`` set, a frame of any other kind raises
        :class:`FrameCorruption` — except :attr:`FrameKind.ERROR`, whose
        payload is re-raised here as a :class:`ChannelError` carrying the
        peer's own failure text.
        """
        if self._closed:
            raise ChannelClosed(f"{self.party}: channel already closed")
        deadline = self.timeout if timeout is None else timeout
        try:
            if not self._connection.poll(deadline):
                raise ChannelTimeout(
                    f"{self.party}: no frame within {deadline:.3f}s"
                )
            raw = self._connection.recv_bytes()
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ChannelClosed(f"{self.party}: peer hung up during recv") from exc
        if len(raw) < FRAME_OVERHEAD_BYTES:
            raise FrameCorruption(
                f"{self.party}: truncated frame of {len(raw)} bytes"
            )
        length, crc, kind_tag = HEADER.unpack_from(raw)
        payload = raw[FRAME_OVERHEAD_BYTES:]
        if length != len(payload):
            raise FrameCorruption(
                f"{self.party}: length field {length} != payload {len(payload)}"
            )
        if zlib.crc32(payload) != crc:
            raise FrameCorruption(f"{self.party}: CRC mismatch on {length}-byte frame")
        try:
            kind = FrameKind(kind_tag)
        except ValueError as exc:
            raise FrameCorruption(f"{self.party}: unknown frame kind {kind_tag}") from exc
        self.stats.frames_received += 1
        self.stats.payload_bytes_received += len(payload)
        self.stats.by_kind_received[kind.name] = (
            self.stats.by_kind_received.get(kind.name, 0) + len(payload)
        )
        obs.add_counter("channel.frames_received")
        obs.add_counter("channel.bytes_received", len(payload) + FRAME_OVERHEAD_BYTES)
        if expected is not None and kind not in expected:
            if kind is FrameKind.ERROR:
                raise ChannelError(
                    f"{self.party}: peer reported failure: "
                    f"{payload.decode('utf-8', errors='replace')}"
                )
            names = "/".join(k.name for k in expected)
            raise FrameCorruption(
                f"{self.party}: expected {names}, received {kind.name}"
            )
        return kind, payload

    def close(self) -> None:
        """Close this endpoint; further sends and receives raise."""
        if not self._closed:
            self._closed = True
            self._connection.close()

    def __enter__(self) -> "PartyChannel":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def channel_pair(
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
    parties: Tuple[str, str] = ("driver", "party"),
) -> Tuple[PartyChannel, PartyChannel]:
    """Create a connected duplex channel pair, one endpoint per party."""
    left, right = multiprocessing.Pipe(duplex=True)
    return (
        PartyChannel(left, party=parties[0], timeout=timeout),
        PartyChannel(right, party=parties[1], timeout=timeout),
    )
