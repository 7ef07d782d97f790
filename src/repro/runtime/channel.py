"""Length-framed, CRC-checked transport between two party processes.

The secure-mode kernels in :mod:`repro.crypto` were built (PR 5) as
single-process simulations: both protocol parties live in one interpreter
and "communication" is a Python function call whose cost the
:class:`~repro.crypto.oblivious_transfer.TranscriptAccountant` *models*.
This module supplies the missing physical layer so the two parties can run
as separate OS processes (:mod:`repro.crypto.transport`): a
:class:`PartyChannel` wraps one end of a :func:`socket.socketpair` and
moves opaque byte payloads as *frames* —

``[length: u32][crc32: u32][kind: u8][payload: length bytes]``

— and nothing else, copied only by the kernel — with a CRC-32 integrity
check on every byte received, a typed :class:`FrameKind` tag so protocol
steps are self-describing on the wire, and per-kind byte accounting on both
directions.  A sender may hand a frame over as several buffers (written one
after another, never joined) together with a CRC it already holds; the
receiver folds the CRC into its read loop and reads every frame into one
buffer per endpoint.  The 9-byte header is the channel's own overhead and
is reported separately from protocol payload bytes: the measured-vs-analytic contract (``docs/architecture.md`` §12)
compares *payload* bytes against :func:`~repro.crypto.secure_compare.comparison_cost`,
while ``wire_bytes_*`` tells the true on-the-wire total.

Failure surfaces are typed, never silent:

* :class:`ChannelClosed` — the peer's end is gone (EOF / broken pipe),
  e.g. a killed party; :class:`~repro.crypto.transport.RemoteParty` maps
  it onto a typed ``RemotePartyError``.
* :class:`ChannelTimeout` — a frame not completely received, or not
  completely sent, within the deadline; one deadline covers the whole
  frame, so neither a dead peer, nor one that stalls mid-frame, nor one that
  stops reading can hang the driver.
* :class:`FrameCorruption` — CRC mismatch, a length field above
  :data:`MAX_FRAME_BYTES`, a frame cut short by EOF, unknown kind tag, or
  an unexpected frame kind mid-protocol.

The channel is transport only: it never touches RNG streams, accountants,
or ledgers, so layering it under the crypto kernels cannot perturb any
pinned bit-for-bit contract.
"""

from __future__ import annotations

import math
import numbers
import socket
import struct
import time
import zlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Optional, Tuple

from .. import obs

#: Frame header: payload length (u32), CRC-32 of payload (u32), kind (u8).
HEADER = struct.Struct("<IIB")

#: Bytes of channel overhead per frame (the header above).
FRAME_OVERHEAD_BYTES = HEADER.size

#: Hard cap on a single frame's payload, on send and receive alike; a
#: corrupted length field must not make the receiver attempt a
#: multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default bound on every send and receive.  Generous for same-host sockets;
#: the point is that *no* frame transfer is unbounded.
DEFAULT_TIMEOUT_SECONDS = 30.0


def check_timeout(timeout) -> float:
    """Return ``timeout`` in seconds if it is a finite positive real number.

    A bool or a non-number raises ``TypeError`` (``True`` is not one second);
    zero, a negative, ``nan`` or ``inf`` raises ``ValueError``.  Callers check
    at construction, so a bad deadline fails before any party process starts
    rather than as an untyped error mid-session.
    """
    if isinstance(timeout, bool) or not isinstance(timeout, numbers.Real):
        raise TypeError(f"timeout must be a real number of seconds, not {type(timeout).__name__}")
    if not (timeout > 0 and math.isfinite(timeout)):
        raise ValueError(f"timeout must be positive and finite, got {timeout!r}")
    return float(timeout)


class FrameKind(IntEnum):
    """Self-describing tag carried by every frame.

    The comparison kinds mirror the message pattern the analytic
    :func:`~repro.crypto.secure_compare.comparison_cost` model charges, so
    per-kind byte totals line up one-to-one with accountant categories.
    """

    CONTROL = 0       #: session setup / teardown handshakes
    # Tags are wire format and never renumbered: 1, 2 and 6 stay unassigned.
    CMP_CHOICES = 3   #: comparison batch: receiver block choices
    CMP_RESPONSE = 4  #: comparison batch: sender table responses
    CMP_AND = 5       #: comparison batch: AND-combine gate traffic
    ERROR = 7         #: remote party's typed failure report


class ChannelError(RuntimeError):
    """Base class for transport failures."""


class ChannelClosed(ChannelError):
    """The peer's end of the socket is gone (EOF or broken pipe)."""


class ChannelTimeout(ChannelError):
    """A frame was not completely received, or sent, within the deadline."""


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

    Wraps one end of a connected stream socket (:func:`channel_pair`); a
    child process started with the ``fork`` method inherits an endpoint
    through :class:`multiprocessing.Process` args.
    """

    def __init__(
        self,
        sock: socket.socket,
        party: str,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ) -> None:
        self.timeout = check_timeout(timeout)
        self._socket = sock
        self.party = party
        self.stats = ChannelStats()
        self._closed = False
        # Every receive reads into these two buffers (see recv).
        self._header = bytearray(FRAME_OVERHEAD_BYTES)
        self._buffer = bytearray()

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, kind: FrameKind, *buffers, crc: Optional[int] = None) -> int:
        """Frame the concatenation of ``buffers`` under ``kind`` and write it.

        Each buffer is any C-contiguous buffer (bytes, a numpy array, a
        memoryview); they are written one after another after the header,
        never joined, and no buffer at all is an empty payload.  ``crc`` is
        the payload's CRC-32 when the sender already holds it — a constant
        prefix checksummed once continues as ``zlib.crc32(rest,
        prefix_crc)`` — and is computed here otherwise.  The receiver
        verifies every byte it reads whatever the sender claims, so a wrong
        ``crc`` is a :class:`FrameCorruption` at the peer.

        One deadline, the endpoint's timeout, covers the whole frame: a peer
        that stops reading surfaces as :class:`ChannelTimeout`, and the
        endpoint closes, because part of the frame may already be on the
        wire.  Returns the payload byte count (what the measured-vs-analytic
        contract sums); header overhead is tracked in :attr:`stats` but not
        returned, to keep call sites aligned with the analytic model.
        """
        if self._closed:
            raise ChannelClosed(f"{self.party}: channel already closed")
        kind = FrameKind(kind)
        views = [memoryview(buffer) for buffer in buffers]
        if not all(view.c_contiguous for view in views):
            raise BufferError("frame buffers must be C-contiguous")
        length = sum(view.nbytes for view in views)
        if length > MAX_FRAME_BYTES:
            raise ValueError(
                f"frame payload of {length} bytes exceeds cap {MAX_FRAME_BYTES}"
            )
        if crc is None:
            crc = 0
            for view in views:
                crc = zlib.crc32(view, crc)
        self._write(HEADER.pack(length, crc, int(kind)), *views)
        self.stats.frames_sent += 1
        self.stats.payload_bytes_sent += length
        self.stats.by_kind_sent[kind.name] = (
            self.stats.by_kind_sent.get(kind.name, 0) + length
        )
        obs.add_counter("channel.frames_sent")
        obs.add_counter("channel.bytes_sent", length + FRAME_OVERHEAD_BYTES)
        return length

    def _write(self, *views) -> None:
        """``sendall`` each view in turn, all within one deadline."""
        expires = time.monotonic() + self.timeout
        for view in views:
            remaining = expires - time.monotonic()
            try:
                if remaining <= 0:
                    raise socket.timeout
                self._socket.settimeout(remaining)
                self._socket.sendall(view)
            except socket.timeout as exc:
                self.close()
                raise ChannelTimeout(
                    f"{self.party}: frame not sent within {self.timeout:.3f}s"
                ) from exc
            except OSError as exc:
                raise ChannelClosed(f"{self.party}: peer hung up during send") from exc

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #
    def recv(
        self,
        expected: Optional[Tuple[FrameKind, ...]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[FrameKind, memoryview]:
        """Receive one frame, verify its CRC, and return ``(kind, payload)``.

        ``payload`` is a read-only view of this endpoint's receive buffer,
        which every frame reuses: it is valid until the next ``recv`` on this
        endpoint, so a caller that keeps it longer copies it first
        (``bytes(payload)``).  The CRC-32 is folded in chunk by chunk as the
        payload arrives, over every byte read.

        One deadline, ``timeout`` (falling back to the channel default),
        covers the whole frame, so a crashed or stalled peer surfaces as
        :class:`ChannelTimeout` / :class:`ChannelClosed` rather than a hang;
        a receive abandoned mid-frame closes this endpoint.  With
        ``expected`` set, a frame of any other kind raises
        :class:`FrameCorruption` — except :attr:`FrameKind.ERROR`, whose
        payload is re-raised here as a :class:`ChannelError` carrying the
        peer's own failure text.
        """
        if self._closed:
            raise ChannelClosed(f"{self.party}: channel already closed")
        deadline = self.timeout if timeout is None else check_timeout(timeout)
        expires = time.monotonic() + deadline
        got, _ = self._fill(memoryview(self._header), 0, expires, deadline)
        if got == 0:
            raise ChannelClosed(f"{self.party}: peer hung up during recv")
        if got < FRAME_OVERHEAD_BYTES:
            raise FrameCorruption(
                f"{self.party}: truncated frame: EOF after {got} of "
                f"{FRAME_OVERHEAD_BYTES} header bytes"
            )
        length, crc, kind_tag = HEADER.unpack(self._header)
        if length > MAX_FRAME_BYTES:
            self.close()
            raise FrameCorruption(
                f"{self.party}: length field {length} exceeds cap {MAX_FRAME_BYTES}"
            )
        if length > len(self._buffer):
            # A new buffer rather than a resize: a payload returned earlier
            # may still be referenced, and an exported bytearray cannot grow.
            self._buffer = bytearray(length)
        payload = memoryview(self._buffer)[:length]
        got, received_crc = self._fill(payload, FRAME_OVERHEAD_BYTES, expires, deadline)
        if got < length:
            raise FrameCorruption(
                f"{self.party}: truncated frame: length field {length}, "
                f"EOF after {got} payload bytes"
            )
        if received_crc != crc:
            raise FrameCorruption(f"{self.party}: CRC mismatch on {length}-byte frame")
        try:
            kind = FrameKind(kind_tag)
        except ValueError as exc:
            raise FrameCorruption(f"{self.party}: unknown frame kind {kind_tag}") from exc
        self.stats.frames_received += 1
        self.stats.payload_bytes_received += length
        self.stats.by_kind_received[kind.name] = (
            self.stats.by_kind_received.get(kind.name, 0) + length
        )
        obs.add_counter("channel.frames_received")
        obs.add_counter("channel.bytes_received", length + FRAME_OVERHEAD_BYTES)
        if expected is not None and kind not in expected:
            if kind is FrameKind.ERROR:
                raise ChannelError(
                    f"{self.party}: peer reported failure: "
                    f"{bytes(payload).decode('utf-8', errors='replace')}"
                )
            names = "/".join(k.name for k in expected)
            raise FrameCorruption(
                f"{self.party}: expected {names}, received {kind.name}"
            )
        return kind, payload.toreadonly()

    def _fill(
        self, view: memoryview, offset: int, expires: float, deadline: float
    ) -> Tuple[int, int]:
        """Read into ``view`` until it is full or the peer closes.

        Returns the bytes read and their CRC-32, folded in after each
        ``recv_into`` while the chunk is still in cache.  ``offset`` is how
        much of the frame was read before ``view``: a timeout after any byte
        of the frame closes this endpoint.
        """
        got = crc = 0
        while got < len(view):
            remaining = expires - time.monotonic()
            try:
                if remaining <= 0:
                    raise socket.timeout
                self._socket.settimeout(remaining)
                read = self._socket.recv_into(view[got:])
            except socket.timeout as exc:
                if offset + got:
                    self.close()
                raise ChannelTimeout(
                    f"{self.party}: no complete frame within {deadline:.3f}s"
                ) from exc
            except OSError as exc:
                raise ChannelClosed(f"{self.party}: peer hung up during recv") from exc
            if read == 0:
                break
            crc = zlib.crc32(view[got:got + read], crc)
            got += read
        return got, crc

    def close(self) -> None:
        """Close this endpoint; further sends and receives raise."""
        if not self._closed:
            self._closed = True
            self._socket.close()

    def __enter__(self) -> "PartyChannel":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def channel_pair(
    timeout: float = DEFAULT_TIMEOUT_SECONDS,
    parties: Tuple[str, str] = ("driver", "party"),
) -> Tuple[PartyChannel, PartyChannel]:
    """Create a connected duplex channel pair, one endpoint per party."""
    check_timeout(timeout)  # before the sockets exist, so none is left unclosed
    left, right = socket.socketpair()
    return (
        PartyChannel(left, party=parties[0], timeout=timeout),
        PartyChannel(right, party=parties[1], timeout=timeout),
    )
