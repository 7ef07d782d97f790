"""Two-party secure execution over a real transport: the equivalence harness.

The ``transport_smoke``-marked tests are the bounded tier-1 surface (CI runs
them explicitly as the two-process smoke): a real party process per session,
small operand counts, every receive deadline-bounded.  The ``slow``-marked
sweep widens the same equivalence checks across all operand widths for the
nightly job.

Contracts pinned here:

* **bit-for-bit equivalence** — a :class:`RemoteParty` session produces the
  same results, accountant counters + capped log, and canonical ledger
  transcript as the in-process simulation
  (``SecureComparator.compare_batch(execute=True)``), and draws nothing from
  any random stream;
* **measured == analytic** — protocol frame payloads reconcile exactly
  against ``comparison_cost()``, and tampered accounting raises
  :class:`MeasuredCostMismatch` instead of passing silently;
* **typed failure surfaces** — CRC/length/kind violations, timeouts, closed
  pipes, and killed peers all raise typed errors and never hang.  The kills
  are real: ``helpers.crash_points`` makes the party process ``os._exit``
  before its N-th frame.  Adversarial streams (a bit flipped anywhere in a
  frame larger than the socket buffer, or the stream cut at any offset) are
  a hypothesis sweep: each ends in a typed error, none returns a payload.
"""

from __future__ import annotations

import math
import multiprocessing
import socket
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.crash_points import party_dies_before_send
from helpers.rng_contract import assert_stream_contract

from repro.crypto import (
    MeasuredCostMismatch,
    RemoteParty,
    RemotePartyError,
    SecureComparator,
    TranscriptAccountant,
    TransportReport,
    comparison_cost,
)
from repro.crypto.transport import (
    RESPONSE_BYTES,
    _serve_comparison,
    _stand_in,
    charge_comparison_ledger,
)
from repro.federation import CommunicationLedger
from repro.crypto.channel import (
    FRAME_OVERHEAD_BYTES,
    HEADER,
    MAX_FRAME_BYTES,
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    FrameCorruption,
    FrameKind,
    PartyChannel,
    channel_pair,
)

#: Generous bound for same-host sessions; the point is boundedness, not speed.
TIMEOUT = 20.0


def _operands(bit_width: int, count: int, seed: int):
    """Random operand pairs plus the protocol edge values (0, equal, max)."""
    rng = np.random.default_rng(seed)
    top = (1 << bit_width) - 1
    left = list(rng.integers(0, min(top, (1 << 62) - 1), size=count, endpoint=True))
    right = list(rng.integers(0, min(top, (1 << 62) - 1), size=count, endpoint=True))
    left += [0, top, top, 0]
    right += [top, 0, top, 0]
    if bit_width == 64:
        left = [int(v) for v in left] + [(1 << 64) - 1, (1 << 64) - 2]
        right = [int(v) for v in right] + [(1 << 64) - 2, (1 << 64) - 1]
    return left, right


def _raw_write(channel: PartyChannel, data: bytes) -> None:
    """Put ``data`` on ``channel``'s socket as is, bypassing the framing."""
    channel._socket.sendall(data)


def _frame(payload: bytes, kind: FrameKind = FrameKind.CMP_RESPONSE) -> bytes:
    """One well-formed frame, header and payload, as the wire carries it."""
    return HEADER.pack(len(payload), zlib.crc32(payload), int(kind)) + payload


# --------------------------------------------------------------------------- #
# Channel unit tests (both endpoints in-process; no subprocess needed)
# --------------------------------------------------------------------------- #
class TestPartyChannel:
    def test_roundtrip_and_stats(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        sent = driver.send(FrameKind.CMP_CHOICES, b"abcde")
        assert sent == 5
        driver.send(FrameKind.CONTROL)  # empty payload is legal
        kind, payload = party.recv(expected=(FrameKind.CMP_CHOICES,))
        assert kind is FrameKind.CMP_CHOICES and payload == b"abcde"
        kind, payload = party.recv()
        assert kind is FrameKind.CONTROL and payload == b""

        assert driver.stats.frames_sent == 2
        assert driver.stats.payload_bytes_sent == 5
        assert driver.stats.by_kind_sent == {"CMP_CHOICES": 5, "CONTROL": 0}
        assert driver.stats.wire_bytes_sent == 5 + 2 * FRAME_OVERHEAD_BYTES
        assert party.stats.frames_received == 2
        assert party.stats.payload_bytes_received == 5
        assert party.stats.by_kind_received == {"CMP_CHOICES": 5, "CONTROL": 0}
        assert party.stats.wire_bytes_received == 5 + 2 * FRAME_OVERHEAD_BYTES
        snapshot = driver.stats.snapshot()
        assert snapshot["frames_sent"] == 2
        assert snapshot["wire_bytes_sent"] == driver.stats.wire_bytes_sent
        driver.close()
        party.close()

    def test_duplex_both_directions(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        driver.send(FrameKind.CMP_CHOICES, b"\x01\x02")
        party.recv(expected=(FrameKind.CMP_CHOICES,))
        party.send(FrameKind.CMP_RESPONSE, b"\xff")
        kind, payload = driver.recv(expected=(FrameKind.CMP_RESPONSE,))
        assert payload == b"\xff"
        driver.close()
        party.close()

    def test_wire_carries_exactly_header_and_payload(self):
        # No second length prefix, no padding: the peer socket sees the
        # 9-byte header and the caller's buffer, byte for byte.
        driver, party = channel_pair(timeout=TIMEOUT)
        payload = np.arange(40, dtype="<u4")
        sent = driver.send(FrameKind.CMP_RESPONSE, payload)
        expected = HEADER.pack(
            payload.nbytes, zlib.crc32(payload.tobytes()), int(FrameKind.CMP_RESPONSE)
        ) + payload.tobytes()
        driver.close()
        raw = b""
        while chunk := party._socket.recv(1 << 16):
            raw += chunk
        assert sent == payload.nbytes
        assert raw == expected
        assert len(raw) == driver.stats.wire_bytes_sent
        party.close()

    def test_any_contiguous_buffer_is_a_payload(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        rows = np.arange(6, dtype="<u8").reshape(2, 3)
        for payload in (rows, memoryview(b"view"), bytearray(b"array"), rows[1]):
            assert driver.send(FrameKind.CMP_AND, payload) == memoryview(payload).nbytes
            _, received = party.recv(expected=(FrameKind.CMP_AND,))
            assert received == memoryview(payload).tobytes()
        with pytest.raises(BufferError, match="C-contiguous"):
            driver.send(FrameKind.CMP_AND, rows[:, 0])
        driver.close()
        party.close()

    def test_a_frame_sent_in_parts_is_their_concatenation(self):
        # The parts are written one after another under one header; a CRC
        # the sender already holds for a prefix continues over the rest.
        driver, party = channel_pair(timeout=TIMEOUT)
        head, rows = bytes(300), np.arange(6, dtype="<u8").reshape(2, 3)
        joined = head + rows.tobytes() + b"tail"
        held = zlib.crc32(b"tail", zlib.crc32(rows, zlib.crc32(head)))
        for crc in (None, held):
            assert driver.send(FrameKind.CMP_RESPONSE, head, rows, b"tail", crc=crc) == len(joined)
            kind, payload = party.recv(expected=(FrameKind.CMP_RESPONSE,))
            assert payload == joined and payload.readonly
        driver.send(FrameKind.CMP_RESPONSE, head, rows, b"tail", crc=held)
        driver.close()
        raw = b""
        while chunk := party._socket.recv(1 << 16):
            raw += chunk
        assert raw == _frame(joined)
        assert driver.stats.by_kind_sent == {"CMP_RESPONSE": 3 * len(joined)}
        party.close()

    def test_a_wrong_sender_crc_is_corruption_at_the_peer(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        body = bytes(range(256)) * 1024  # larger than the socket buffer
        sender = threading.Thread(
            target=driver.send, args=(FrameKind.CMP_RESPONSE, body[:1000], body[1000:]),
            kwargs={"crc": zlib.crc32(body) ^ 1},
        )
        sender.start()
        try:
            with pytest.raises(FrameCorruption, match="CRC mismatch"):
                party.recv(expected=(FrameKind.CMP_RESPONSE,))
        finally:
            sender.join(timeout=TIMEOUT)
            driver.close()
            party.close()
        assert not sender.is_alive()

    def test_crc_corruption_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        body = b"payload"
        _raw_write(driver, HEADER.pack(len(body), zlib.crc32(body) ^ 0xDEADBEEF, 0) + body)
        with pytest.raises(FrameCorruption, match="CRC mismatch"):
            party.recv()
        driver.close()
        party.close()

    def test_length_field_mismatch_is_detected(self):
        # A length field claiming more than the peer sends before it hangs
        # up is a truncated frame, whatever else follows.
        driver, party = channel_pair(timeout=TIMEOUT)
        body = b"payload"
        _raw_write(driver, HEADER.pack(len(body) + 3, zlib.crc32(body), 0) + body)
        driver.close()
        with pytest.raises(FrameCorruption, match="length field 10, EOF after 7"):
            party.recv()
        party.close()

    def test_length_field_above_the_cap_is_rejected_before_allocating(self):
        # No payload follows and the writer stays open: a receiver that
        # believed the header would wait out its deadline instead.
        driver, party = channel_pair(timeout=TIMEOUT)
        _raw_write(driver, HEADER.pack(MAX_FRAME_BYTES + 1, 0, 0))
        with pytest.raises(FrameCorruption, match="exceeds cap"):
            party.recv(timeout=5.0)
        with pytest.raises(ChannelClosed):
            party.recv()
        driver.close()

    def test_unknown_kind_tag_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        body = b"x"
        _raw_write(driver, HEADER.pack(len(body), zlib.crc32(body), 250) + body)
        with pytest.raises(FrameCorruption, match="unknown frame kind"):
            party.recv()
        driver.close()
        party.close()

    def test_truncated_frame_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        _raw_write(driver, b"\x00\x01")  # shorter than the header
        driver.close()
        with pytest.raises(FrameCorruption, match="truncated"):
            party.recv()
        party.close()

    def test_frame_cut_inside_its_payload_is_truncated(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        body = bytes(range(100))
        _raw_write(driver, HEADER.pack(len(body), zlib.crc32(body), 0) + body[:40])
        driver.close()
        with pytest.raises(FrameCorruption, match="truncated"):
            party.recv()
        party.close()

    def test_peer_stalling_mid_frame_hits_the_deadline(self):
        # The deadline covers the whole frame, not just its first byte.
        driver, party = channel_pair(timeout=TIMEOUT)
        body = bytes(1000)
        _raw_write(driver, HEADER.pack(len(body), zlib.crc32(body), 0) + body[:500])
        started = time.monotonic()
        with pytest.raises(ChannelTimeout):
            party.recv(timeout=0.2)
        assert time.monotonic() - started < 1.0
        # Half a frame was consumed: the endpoint cannot resynchronise.
        with pytest.raises(ChannelClosed, match="already closed"):
            party.recv()
        driver.close()

    def test_unexpected_kind_mid_protocol_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        driver.send(FrameKind.CONTROL, b"hello")
        with pytest.raises(FrameCorruption, match="expected CMP_CHOICES"):
            party.recv(expected=(FrameKind.CMP_CHOICES,))
        driver.close()
        party.close()

    def test_error_frame_reraises_the_peers_failure_text(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        party.send(FrameKind.ERROR, b"ValueError: bad operand")
        with pytest.raises(ChannelError, match="ValueError: bad operand"):
            driver.recv(expected=(FrameKind.CONTROL,))
        driver.close()
        party.close()

    def test_recv_is_deadline_bounded(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        with pytest.raises(ChannelTimeout):
            driver.recv(timeout=0.05)
        # Nothing of a frame was read: the endpoint stays usable.
        party.send(FrameKind.CONTROL, b"late")
        assert driver.recv(timeout=TIMEOUT) == (FrameKind.CONTROL, b"late")
        driver.close()
        party.close()

    def test_closed_endpoint_raises_on_use(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        driver.close()
        with pytest.raises(ChannelClosed):
            driver.send(FrameKind.CONTROL, b"")
        with pytest.raises(ChannelClosed):
            driver.recv()
        party.close()

    def test_peer_hangup_surfaces_as_channel_closed(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        party.close()
        with pytest.raises(ChannelClosed, match="peer hung up"):
            driver.recv(timeout=1.0)
        driver.close()

    def test_oversized_payload_is_rejected_before_sending(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        with pytest.raises(ValueError, match="exceeds cap"):
            driver.send(FrameKind.CONTROL, bytes(MAX_FRAME_BYTES + 1))
        driver.close()
        party.close()

    def test_send_to_a_peer_that_never_reads_hits_the_deadline(self):
        # 4 MiB is far more than the socket buffers hold, so the send can
        # only finish if the peer reads.  Without a send deadline it blocks
        # for good; the thread's join timeout keeps this test bounded then.
        driver, party = channel_pair(timeout=0.5)
        raised = []

        def send():
            try:
                driver.send(FrameKind.CMP_CHOICES, bytes(4 << 20))
            except ChannelError as exc:
                raised.append(exc)

        sender = threading.Thread(target=send, daemon=True)
        started = time.monotonic()
        sender.start()
        sender.join(timeout=3.0)
        elapsed = time.monotonic() - started
        try:
            assert not sender.is_alive(), "send blocked past its deadline"
            assert elapsed < 1.0
            assert len(raised) == 1 and isinstance(raised[0], ChannelTimeout)
            assert "not sent within 0.500s" in str(raised[0])
            # Part of the frame is on the wire: the stream cannot resynchronise.
            with pytest.raises(ChannelClosed, match="already closed"):
                driver.send(FrameKind.CONTROL)
        finally:
            party.close()  # unblocks a send that ignored its deadline
            driver.close()
            sender.join(timeout=TIMEOUT)

    #: Deadlines refused before any socket or process exists.
    BAD_TIMEOUTS = (
        (0.0, ValueError),
        (-1.0, ValueError),
        (math.nan, ValueError),
        (math.inf, ValueError),
        (True, TypeError),
        (np.bool_(True), TypeError),
        ("1", TypeError),
        (None, TypeError),
    )

    def test_timeout_must_be_positive(self):
        for timeout, error in self.BAD_TIMEOUTS:
            with pytest.raises(error, match="timeout must be"):
                channel_pair(timeout=timeout)
        left, right = socket.socketpair()
        try:
            for timeout, error in self.BAD_TIMEOUTS:
                with pytest.raises(error, match="timeout must be"):
                    PartyChannel(left, party="driver", timeout=timeout)
        finally:
            left.close()
            right.close()
        driver, party = channel_pair(timeout=TIMEOUT)
        for timeout, error in self.BAD_TIMEOUTS[:-1]:  # None means the default
            with pytest.raises(error, match="timeout must be"):
                driver.recv(timeout=timeout)
        # A refused deadline reads nothing: the endpoint stays usable.
        party.send(FrameKind.CONTROL, b"ok")
        assert driver.recv(timeout=np.float64(TIMEOUT)) == (FrameKind.CONTROL, b"ok")
        driver.close()
        party.close()

    def test_remote_party_timeout_must_be_positive(self):
        # Rejected at construction, not at the first session.
        for timeout in (0, -1.0):
            with pytest.raises(ValueError, match="timeout must be positive"):
                RemoteParty(timeout=timeout)
        for timeout, error in self.BAD_TIMEOUTS:
            with pytest.raises(error, match="timeout must be"):
                RemoteParty(timeout=timeout)
        assert RemoteParty(timeout=5).timeout == 5.0


# --------------------------------------------------------------------------- #
# Two-party equivalence: comparison sessions
# --------------------------------------------------------------------------- #
@pytest.mark.transport_smoke
class TestRemoteComparisonEquivalence:
    def test_matches_in_process_simulation_bit_for_bit(self):
        bit_width = 16
        left, right = _operands(bit_width, count=19, seed=3)
        count = len(left)

        remote_acc = TranscriptAccountant()
        remote_ledger = CommunicationLedger()
        driver = RemoteParty(
            bit_width=bit_width, accountant=remote_acc, timeout=TIMEOUT, ledger=remote_ledger,
        )
        # RNG contract: a remote comparison draws nothing (table OTs need no
        # masking randomness) — same as the in-process kernel.
        outcome = assert_stream_contract(
            lambda _generator: driver.compare_batch(left, right), np.random.default_rng(11), 0
        )

        local_acc = TranscriptAccountant()
        comparator = SecureComparator(bit_width=bit_width, accountant=local_acc)
        batch = comparator.compare_batch(left, right, execute=True)

        assert np.array_equal(outcome.left_ge_right, batch.left_ge_right)
        assert remote_acc.snapshot() == local_acc.snapshot()
        assert remote_acc._log == local_acc._log

        # Canonical ledger transcript: identical to the factored in-process
        # charge; the physical frames live only in the frame table.
        twin_ledger = CommunicationLedger()
        charge_comparison_ledger(twin_ledger, count, outcome.cost, 0, 1)
        assert remote_ledger.message_records() == twin_ledger.message_records()
        assert not len(twin_ledger.frames)
        assert len(remote_ledger.frames)

        # Measured == analytic, exactly.
        cost = comparison_cost(bit_width, block_bits=SecureComparator.BLOCK_BITS)
        assert outcome.report.analytic_payload_bytes == count * cost.bits // 8
        assert outcome.report.protocol_payload_bytes == outcome.report.analytic_payload_bytes
        assert outcome.report.wire_bytes == (
            outcome.report.protocol_payload_bytes
            + outcome.report.control_payload_bytes
            + FRAME_OVERHEAD_BYTES * outcome.report.frames
        )
        assert set(outcome.report.by_kind) >= {"CMP_CHOICES", "CMP_RESPONSE", "CMP_AND"}

        # Every frame of the session is attributed in the ledger's frame table.
        assert len(remote_ledger.frames) == outcome.report.frames
        assert remote_ledger.frames.total("wire") == outcome.report.wire_bytes
        summary = remote_ledger.summary()
        assert summary["transport_frames"] == outcome.report.frames
        assert summary["transport_wire_bytes"] == outcome.report.wire_bytes
        assert "transport_frames" not in twin_ledger.summary()

    def test_frames_larger_than_the_socket_buffer(self):
        # 8192 24-bit comparisons: each CMP_RESPONSE is ~290 KB, more than
        # one socket buffer, so every frame takes several reads and writes.
        bit_width, count = 24, 8192
        rng = np.random.default_rng(29)
        left = rng.integers(0, 1 << bit_width, size=count)
        right = rng.integers(0, 1 << bit_width, size=count)
        right[::7] = left[::7]

        remote_acc = TranscriptAccountant()
        driver = RemoteParty(bit_width=bit_width, accountant=remote_acc, timeout=TIMEOUT)
        outcome = driver.compare_batch(left, right, session_key="large-frames")

        local_acc = TranscriptAccountant()
        batch = SecureComparator(bit_width=bit_width, accountant=local_acc).compare_batch(
            left, right, execute=True
        )
        assert np.array_equal(outcome.left_ge_right, batch.left_ge_right)
        assert np.array_equal(outcome.left_ge_right, left >= right)
        assert remote_acc.snapshot() == local_acc.snapshot()
        assert remote_acc._log == local_acc._log

        cost = comparison_cost(bit_width, block_bits=SecureComparator.BLOCK_BITS)
        per_ot_bytes = ((1 << SecureComparator.BLOCK_BITS) + 128) // 8
        assert outcome.report.by_kind["CMP_RESPONSE"] == 6 * (2 * per_ot_bytes - 1) * count
        assert outcome.report.analytic_payload_bytes == count * cost.bits // 8
        assert outcome.report.protocol_payload_bytes == outcome.report.analytic_payload_bytes

    def test_empty_comparison_batch_short_circuits(self, monkeypatch):
        # No party process, no frames, nothing in the ledger's frame table.
        def no_session(*_args, **_kwargs):
            raise AssertionError("an empty batch must not start a session")

        monkeypatch.setattr(RemoteParty, "_run_session", no_session)
        ledger = CommunicationLedger()
        driver = RemoteParty(bit_width=8, timeout=TIMEOUT, ledger=ledger)
        outcome = driver.compare_batch([], [])
        assert outcome.left_ge_right.shape == (0,)
        assert outcome.left_ge_right.dtype == bool
        assert outcome.report == TransportReport(0, 0, 0, 0, 0, {})
        assert not len(ledger.frames)
        assert not ledger.message_records()
        assert driver.accountant.snapshot() == TranscriptAccountant().snapshot()

    def test_operand_validation_mirrors_the_in_process_kernel(self):
        driver = RemoteParty(bit_width=8, timeout=TIMEOUT)
        with pytest.raises(ValueError):
            driver.compare_batch([1, 2], [3])
        with pytest.raises(ValueError):
            driver.compare_batch([300], [1])
        with pytest.raises(ValueError):
            driver.compare_batch([-1], [1])
        with pytest.raises(ValueError):
            RemoteParty(bit_width=0)

    def test_a_batch_above_the_frame_cap_is_refused_before_forking(self, monkeypatch):
        # At 24 bits a block row's CMP_RESPONSE is the widest frame; one
        # comparison more than the cap allows is refused before a session.
        class Started(Exception):
            pass

        def started(*_args, **_kwargs):
            raise Started

        monkeypatch.setattr(RemoteParty, "_run_session", started)
        driver = RemoteParty(bit_width=24, timeout=TIMEOUT)
        largest = MAX_FRAME_BYTES // RESPONSE_BYTES
        operands = np.zeros(largest + 1, dtype=np.uint64)
        with pytest.raises(ValueError, match=f"the largest batch at this width is {largest}"):
            driver.compare_batch(operands, operands)
        with pytest.raises(Started):
            driver.compare_batch(operands[:largest], operands[:largest])
        assert driver.accountant.snapshot() == TranscriptAccountant().snapshot()


# --------------------------------------------------------------------------- #
# One kernel: outcome bits come from the wire, the protocol from the comparator
# --------------------------------------------------------------------------- #
#: A CMP_CHOICES body the party must refuse although its CRC is valid, made
#: from the size of the batch-wide frame (one byte per block row per
#: comparison).
BAD_CHOICES = {
    "byte outside the table": (lambda size: b"\x10" * size, "choice out of table range"),
    "one byte too many": (lambda size: b"\x01" * (size + 1), "CMP_CHOICES carries"),
    "one byte too few": (lambda size: b"\x01" * (size - 1), "CMP_CHOICES carries"),
}


class TestPartyRejectsMalformedChoices:
    @pytest.mark.parametrize("case", sorted(BAD_CHOICES))
    def test_serve_comparison_raises_on_a_crc_valid_bad_frame(self, case):
        make_body, message = BAD_CHOICES[case]
        count = 5
        driver, party = channel_pair(timeout=TIMEOUT)
        config = {"op": "compare", "count": count, "bit_width": 8}
        private = np.arange(count, dtype="<u8").tobytes()
        raised = []

        def serve():
            try:
                _serve_comparison(party, config, private, _stand_in(count, 8))
            except ValueError as exc:
                raised.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            driver.recv(expected=(FrameKind.CONTROL,))  # ready
            # 8 bits are two block rows: the batch-wide frame is 2 * count bytes.
            driver.send(FrameKind.CMP_CHOICES, make_body(2 * count))
            thread.join(timeout=TIMEOUT)
            assert not thread.is_alive()
        finally:
            driver.close()
            thread.join(timeout=TIMEOUT)
            party.close()
        assert len(raised) == 1 and message in str(raised[0])

    @pytest.mark.transport_smoke
    @pytest.mark.parametrize("case", sorted(BAD_CHOICES))
    def test_the_refusal_reaches_the_driver_as_a_typed_error(self, case, monkeypatch):
        make_body, message = BAD_CHOICES[case]
        original = RemoteParty._send

        def corrupting(self, channel, kind, *buffers):
            if kind is FrameKind.CMP_CHOICES:
                buffers = (make_body(sum(memoryview(part).nbytes for part in buffers)),)
            original(self, channel, kind, *buffers)

        monkeypatch.setattr(RemoteParty, "_send", corrupting)
        driver = RemoteParty(bit_width=8, timeout=TIMEOUT)
        with pytest.raises(RemotePartyError, match=f"ValueError: .*{message}"):
            driver.compare_batch([3, 200, 7], [5, 100, 7], session_key="bad-choices")
        # A refused session charges nothing.
        assert driver.accountant.snapshot() == TranscriptAccountant().snapshot()

    def test_driver_refuses_a_response_of_the_wrong_size(self):
        # The driver reads share rows at fixed offsets of a response, so a
        # CRC-valid response of any other size is corruption, not data.
        driver_end, party_end = channel_pair(timeout=TIMEOUT)
        party_end.send(FrameKind.CMP_RESPONSE, bytes(10))
        fetch = RemoteParty(bit_width=8, timeout=TIMEOUT)._fetch_leaf_shares
        with pytest.raises(FrameCorruption, match="CMP_RESPONSE carries 10 bytes, expected 105"):
            fetch(driver_end, _stand_in(3, 8), np.zeros((2, 3), dtype=np.uint8))
        driver_end.close()
        party_end.close()


@pytest.mark.transport_smoke
class TestOneKernel:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the stubbed OT reaches the party process by fork inheritance",
    )
    def test_outcomes_derive_only_from_what_crossed_the_wire(self, monkeypatch):
        # Transport twin of TestOutcomesDeriveOnlyFromOTOutputs: the party's
        # table OT yields all-zero bits, so every CMP_RESPONSE body is zeros
        # of the analytic size (the session still reconciles) — and the
        # driver, which holds only ``left``, must answer all-False.
        monkeypatch.setattr(
            "repro.crypto.secure_compare.transfer_packed_table_batch",
            lambda tables, choices, table_size: np.zeros(np.shape(choices), dtype=bool),
        )
        left, right = _operands(16, count=6, seed=2)
        assert any(l >= r for l, r in zip(left, right))
        outcome = RemoteParty(bit_width=16, timeout=TIMEOUT).compare_batch(left, right)
        assert not outcome.left_ge_right.any()
        assert outcome.report.protocol_payload_bytes == outcome.report.analytic_payload_bytes

    def test_both_deployments_run_the_comparators_combine_step(self, monkeypatch):
        calls = []

        def all_greater(greater, equal):
            calls.append(greater.shape)
            return np.ones(greater.shape[1], dtype=bool), np.zeros(equal.shape[1], dtype=bool)

        monkeypatch.setattr(SecureComparator, "_combine", staticmethod(all_greater))
        left, right = [1, 2, 3], [200, 100, 50]
        local = SecureComparator(bit_width=8).compare_batch(left, right, execute=True)
        remote = RemoteParty(bit_width=8, timeout=TIMEOUT).compare_batch(left, right)
        assert calls == [(2, 3), (2, 3)]
        assert local.left_ge_right.all() and remote.left_ge_right.all()


# --------------------------------------------------------------------------- #
# Measured-vs-analytic: divergence fails loudly
# --------------------------------------------------------------------------- #
@pytest.mark.transport_smoke
class TestMeasuredCostContract:
    def test_tampered_accounting_raises_measured_cost_mismatch(self, monkeypatch):
        original = PartyChannel.send

        def inflated(self, kind, *buffers, crc=None):
            size = original(self, kind, *buffers, crc=crc)
            if FrameKind(kind) is FrameKind.CMP_CHOICES:
                # Phantom byte: the accounting claims more than crossed the
                # wire, exactly the divergence the reconciliation must catch.
                self.stats.payload_bytes_sent += 1
                name = FrameKind.CMP_CHOICES.name
                self.stats.by_kind_sent[name] = self.stats.by_kind_sent.get(name, 0) + 1
            return size

        monkeypatch.setattr(PartyChannel, "send", inflated)
        driver = RemoteParty(bit_width=8, timeout=TIMEOUT)
        with pytest.raises(MeasuredCostMismatch) as excinfo:
            driver.compare_batch([3], [5], session_key="tampered")
        assert isinstance(excinfo.value, RemotePartyError)
        assert "!= analytic" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Failure model: killed peers are typed errors, never hangs
# --------------------------------------------------------------------------- #
@pytest.mark.transport_smoke
class TestChaosPeerDeath:
    def test_party_killed_before_first_frame_is_a_typed_error(self):
        driver = RemoteParty(bit_width=8, timeout=5.0)
        with party_dies_before_send(1), pytest.raises(RemotePartyError) as excinfo:
            driver.compare_batch([1, 2], [2, 1], session_key="party-kill")
        assert "exit code 86" in str(excinfo.value)

    def test_party_killed_mid_comparison_session_is_a_typed_error(self):
        # An 8-bit comparison has two block rows.  The party survives its
        # first two sends (ready, the first CMP_RESPONSE) and dies before the
        # second response — a genuine mid-protocol death with frames already
        # on the wire.
        ledger = CommunicationLedger()
        driver = RemoteParty(bit_width=8, timeout=5.0, ledger=ledger)
        with party_dies_before_send(3), pytest.raises(RemotePartyError, match="exit code 86"):
            driver.compare_batch([1, 2], [3, 4], session_key="mid-comparison")
        assert "CMP_RESPONSE" in {kind for kind, _ in ledger.frames.labels}
        # A session that died charges nothing to the canonical transcript.
        assert driver.accountant.snapshot() == TranscriptAccountant().snapshot()
        assert not ledger.message_records()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the stalled party reaches the party process by fork inheritance",
    )
    def test_party_that_stops_reading_is_a_typed_error(self, monkeypatch):
        # The party says ready, then never reads: the batch's 600 KB
        # CMP_CHOICES frame outgrows the socket buffers, and the driver's send
        # deadline, not the party's exit, ends the session.
        def stalled(channel, *_args):
            channel.send(FrameKind.CONTROL, b"ready")
            time.sleep(1.0)

        monkeypatch.setattr("repro.crypto.transport.party_main", stalled)
        operands = np.arange(100_000, dtype=np.uint64)
        driver = RemoteParty(bit_width=24, timeout=0.3)
        with pytest.raises(RemotePartyError, match="frame not sent within 0.300s"):
            driver.compare_batch(operands, operands, session_key="stalled")
        assert driver.accountant.snapshot() == TranscriptAccountant().snapshot()


# --------------------------------------------------------------------------- #
# Adversarial streams: every damaged frame is a typed error
# --------------------------------------------------------------------------- #
#: Payload sizes above a default Linux socket buffer (208 KiB), so the folded
#: CRC spans many ``recv_into`` chunks.
LARGE = 256 * 1024
TIER1_FRAMES = dict(max_examples=25, deadline=1000)
WIDE_FRAMES = dict(max_examples=300, deadline=None)


@st.composite
def damaged_streams(draw, max_size):
    """A large frame with one bit flipped (header or payload), or cut short."""
    size = draw(st.integers(LARGE, max_size))
    payload = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).bytes(size)
    stream = _frame(payload)
    damage = draw(st.sampled_from(("header", "payload", "cut")))
    if damage == "cut":
        return stream[: draw(st.integers(0, len(stream) - 1))]
    low = 0 if damage == "header" else 8 * FRAME_OVERHEAD_BYTES
    high = 8 * (FRAME_OVERHEAD_BYTES if damage == "header" else len(stream))
    bit = draw(st.integers(low, high - 1))
    damaged = bytearray(stream)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


def _receive_stream(stream: bytes):
    """Write ``stream`` raw and hang up; return what one receive makes of it.

    The receive expects ``CMP_RESPONSE``, as every protocol receive names
    its kind: the tag is outside the CRC, and a flip that turns it into
    another valid kind is caught by that check.
    """
    driver, party = channel_pair(timeout=TIMEOUT)

    def write():
        try:
            _raw_write(driver, stream)
        except OSError:
            pass  # the receiver refused the frame and hung up first
        finally:
            driver.close()

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return party.recv(expected=(FrameKind.CMP_RESPONSE,))
    except (FrameCorruption, ChannelClosed, ChannelTimeout) as exc:
        return exc
    finally:
        party.close()
        writer.join(timeout=TIMEOUT)
        assert not writer.is_alive()


def _check_damaged_stream(stream: bytes) -> None:
    outcome = _receive_stream(stream)
    assert isinstance(outcome, (FrameCorruption, ChannelClosed, ChannelTimeout)), (
        "a damaged frame was accepted"
    )


def _check_frame_run(sizes, seed: int) -> None:
    """Frames that grow and shrink through one endpoint's receive buffer."""
    rng = np.random.default_rng(seed)
    payloads = [rng.bytes(size) for size in sizes]
    driver, party = channel_pair(timeout=TIMEOUT)
    sender = threading.Thread(
        target=lambda: [driver.send(FrameKind.CMP_RESPONSE, payload) for payload in payloads]
    )
    sender.start()
    try:
        for payload in payloads:
            kind, received = party.recv(expected=(FrameKind.CMP_RESPONSE,))
            assert len(received) == len(payload) and received == payload
    finally:
        sender.join(timeout=TIMEOUT)
        driver.close()
        party.close()
    assert not sender.is_alive()
    assert party.stats.payload_bytes_received == sum(sizes)


class TestAdversarialFrames:
    @settings(**TIER1_FRAMES)
    @given(damaged_streams(max_size=2 * LARGE))
    def test_a_damaged_frame_is_a_typed_error(self, stream):
        _check_damaged_stream(stream)

    @settings(**TIER1_FRAMES)
    @given(st.lists(st.integers(0, 3 * LARGE), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
    def test_the_reused_receive_buffer_returns_each_payload(self, sizes, seed):
        _check_frame_run(sizes, seed)

    def test_an_intact_large_frame_is_received(self):
        # The control of the sweep above: the same stream undamaged.
        payload = np.random.default_rng(5).bytes(3 * LARGE)
        kind, received = _receive_stream(_frame(payload))
        assert kind is FrameKind.CMP_RESPONSE and received == payload

    @pytest.mark.slow
    @settings(**WIDE_FRAMES)
    @given(damaged_streams(max_size=4 << 20))
    def test_a_damaged_frame_is_a_typed_error_wide(self, stream):
        _check_damaged_stream(stream)

    @pytest.mark.slow
    @settings(**WIDE_FRAMES)
    @given(st.lists(st.integers(0, 4 << 20), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    def test_the_reused_receive_buffer_returns_each_payload_wide(self, sizes, seed):
        _check_frame_run(sizes, seed)


# --------------------------------------------------------------------------- #
# Ledger attribution of transport frames
# --------------------------------------------------------------------------- #
class TestLedgerTransportFrames:
    def test_side_list_never_touches_the_canonical_transcript(self):
        ledger = CommunicationLedger()
        before = ledger.message_records()
        ledger.next_round()
        ledger.record_transport_frame(0, 1, "CMP_CHOICES", 40, 49, description="s")
        assert ledger.message_records() == before
        assert ledger.frames.rows() == [(1, 0, 1, 40, 49, "CMP_CHOICES", "s")]
        summary = ledger.summary()
        assert summary["transport_frames"] == 1
        assert summary["transport_payload_bytes"] == 40
        assert summary["transport_wire_bytes"] == 49
        assert summary["total_messages"] == 0

    def test_summary_keys_appear_only_when_frames_exist(self):
        ledger = CommunicationLedger()
        assert "transport_frames" not in ledger.summary()
        ledger.record_transport_frame(0, 1, "CONTROL", 5, 14)
        summary = ledger.summary()
        assert summary["transport_frames"] == 1
        assert summary["transport_payload_bytes"] == 5
        assert summary["transport_wire_bytes"] == 14
        ledger.reset()
        assert not len(ledger.frames)
        assert "transport_frames" not in ledger.summary()

    def test_frame_validation(self):
        ledger = CommunicationLedger()
        with pytest.raises(ValueError, match="payload must not be below 0"):
            ledger.record_transport_frame(0, 1, "CONTROL", payload_bytes=-1, wire_bytes=0)
        with pytest.raises(ValueError, match="wire must not be below payload"):
            ledger.record_transport_frame(0, 1, "CONTROL", payload_bytes=10, wire_bytes=9)
        assert not len(ledger.frames)


# --------------------------------------------------------------------------- #
# Nightly: the full equivalence sweep across operand widths
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestEquivalenceSweep:
    @pytest.mark.parametrize("bit_width", (8, 16, 24, 32, 48, 64))
    def test_comparison_equivalence_across_widths(self, bit_width):
        left, right = _operands(bit_width, count=33, seed=bit_width)
        count = len(left)
        remote_acc = TranscriptAccountant()
        driver = RemoteParty(bit_width=bit_width, accountant=remote_acc, timeout=TIMEOUT)
        outcome = assert_stream_contract(
            lambda _generator: driver.compare_batch(left, right),
            np.random.default_rng(bit_width),
            0,
        )
        local_acc = TranscriptAccountant()
        batch = SecureComparator(bit_width=bit_width, accountant=local_acc).compare_batch(
            left, right, execute=True
        )
        assert np.array_equal(outcome.left_ge_right, batch.left_ge_right)
        assert remote_acc.snapshot() == local_acc.snapshot()
        assert remote_acc._log == local_acc._log
        assert outcome.report.protocol_payload_bytes == count * outcome.cost.bits // 8
