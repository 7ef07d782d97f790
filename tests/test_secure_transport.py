"""Two-party secure execution over a real transport: the equivalence harness.

The ``transport_smoke``-marked tests are the bounded tier-1 surface (CI runs
them explicitly as the two-process smoke): a real party process per session,
small operand counts, every receive deadline-bounded.  The ``slow``-marked
sweep widens the same equivalence checks across all operand widths for the
nightly job.

Contracts pinned here:

* **bit-for-bit equivalence** — a :class:`RemoteParty` session produces the
  same results, accountant counters + capped log, canonical ledger
  transcript, and final RNG state as the in-process simulation
  (``SecureComparator.compare_batch(execute=True)`` /
  ``ObliviousTransfer.transfer_batch``);
* **measured == analytic** — protocol frame payloads reconcile exactly
  against ``comparison_cost()`` / ``ot_payload_bytes()``, and tampered
  accounting raises :class:`MeasuredCostMismatch` instead of passing silently;
* **typed failure surfaces** — CRC/length/kind violations, timeouts, closed
  pipes, and chaos-killed peers all raise typed errors, never hang, and a
  kill inside a runtime worker surfaces as a ``FailedAttempt``.
"""

from __future__ import annotations

import multiprocessing
import threading
import zlib

import numpy as np
import pytest

from helpers.rng_contract import assert_stream_contract

from repro.crypto import (
    MeasuredCostMismatch,
    ObliviousTransfer,
    RemoteParty,
    RemotePartyError,
    SecureComparator,
    TranscriptAccountant,
    TransportReport,
    comparison_cost,
)
from repro.crypto.transport import (
    _serve_comparison,
    charge_comparison_ledger,
    ot_payload_bytes,
)
from repro.federation import CommunicationLedger, TransportFrame
from repro.runtime import (
    CallableItem,
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    ChaosConfig,
    FrameCorruption,
    FrameKind,
    PartyChannel,
    ProcessExecutor,
    WorkItemFailure,
    WorkPlan,
    chaos_action,
    channel_pair,
)
from repro.runtime.channel import FRAME_OVERHEAD_BYTES, HEADER, MAX_FRAME_BYTES

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


def _ot_messages(message_bits: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    top = (1 << message_bits) - 1
    zero = rng.integers(0, top, size=count, dtype=np.uint64, endpoint=True)
    one = rng.integers(0, top, size=count, dtype=np.uint64, endpoint=True)
    choices = rng.integers(0, 2, size=count)
    if message_bits == 64:
        zero[:2] = [(1 << 64) - 1, 0]
        one[:2] = [0, (1 << 64) - 1]
    if message_bits < 64:
        return zero.astype(np.int64), one.astype(np.int64), choices
    return zero, one, choices


# --------------------------------------------------------------------------- #
# Channel unit tests (both endpoints in-process; no subprocess needed)
# --------------------------------------------------------------------------- #
class TestPartyChannel:
    def test_roundtrip_and_stats(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        sent = driver.send(FrameKind.OT_REQUEST, b"abcde")
        assert sent == 5
        driver.send(FrameKind.CONTROL)  # empty payload is legal
        kind, payload = party.recv(expected=(FrameKind.OT_REQUEST,))
        assert kind is FrameKind.OT_REQUEST and payload == b"abcde"
        kind, payload = party.recv()
        assert kind is FrameKind.CONTROL and payload == b""

        assert driver.stats.frames_sent == 2
        assert driver.stats.payload_bytes_sent == 5
        assert driver.stats.by_kind_sent == {"OT_REQUEST": 5, "CONTROL": 0}
        assert driver.stats.wire_bytes_sent == 5 + 2 * FRAME_OVERHEAD_BYTES
        assert party.stats.frames_received == 2
        assert party.stats.payload_bytes_received == 5
        assert party.stats.by_kind_received == {"OT_REQUEST": 5, "CONTROL": 0}
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

    def test_crc_corruption_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        body = b"payload"
        header = HEADER.pack(len(body), zlib.crc32(body) ^ 0xDEADBEEF, 0)
        driver._connection.send_bytes(header + body)
        with pytest.raises(FrameCorruption, match="CRC mismatch"):
            party.recv()
        driver.close()
        party.close()

    def test_length_field_mismatch_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        body = b"payload"
        header = HEADER.pack(len(body) + 3, zlib.crc32(body), 0)
        driver._connection.send_bytes(header + body)
        with pytest.raises(FrameCorruption, match="length field"):
            party.recv()
        driver.close()
        party.close()

    def test_unknown_kind_tag_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        body = b"x"
        header = HEADER.pack(len(body), zlib.crc32(body), 250)
        driver._connection.send_bytes(header + body)
        with pytest.raises(FrameCorruption, match="unknown frame kind"):
            party.recv()
        driver.close()
        party.close()

    def test_truncated_frame_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        driver._connection.send_bytes(b"\x00\x01")  # shorter than the header
        with pytest.raises(FrameCorruption, match="truncated"):
            party.recv()
        driver.close()
        party.close()

    def test_unexpected_kind_mid_protocol_is_detected(self):
        driver, party = channel_pair(timeout=TIMEOUT)
        driver.send(FrameKind.CONTROL, b"hello")
        with pytest.raises(FrameCorruption, match="expected OT_REQUEST"):
            party.recv(expected=(FrameKind.OT_REQUEST,))
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

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            channel_pair(timeout=0.0)


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
        rng = np.random.default_rng(11)
        driver = RemoteParty(
            bit_width=bit_width, accountant=remote_acc, rng=rng,
            timeout=TIMEOUT, ledger=remote_ledger,
        )
        # RNG contract: a remote comparison draws nothing (table OTs need no
        # masking randomness) — same as the in-process kernel.
        outcome = assert_stream_contract(
            lambda _generator: driver.compare_batch(left, right), rng, 0
        )

        local_acc = TranscriptAccountant()
        comparator = SecureComparator(
            bit_width=bit_width, accountant=local_acc, rng=np.random.default_rng(11)
        )
        batch = comparator.compare_batch(left, right, execute=True)

        assert np.array_equal(outcome.left_ge_right, batch.left_ge_right)
        assert remote_acc.snapshot() == local_acc.snapshot()
        assert remote_acc._log == local_acc._log

        # Canonical ledger transcript: identical to the factored in-process
        # charge; the physical frames live only on the transport side-list.
        twin_ledger = CommunicationLedger()
        charge_comparison_ledger(twin_ledger, count, outcome.cost, 0, 1)
        assert remote_ledger.message_records() == twin_ledger.message_records()
        assert not twin_ledger.transport_frames
        assert remote_ledger.transport_frames

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

        # Every frame of the session is attributed on the ledger side-list.
        assert remote_ledger.total_transport_frames() == outcome.report.frames
        assert remote_ledger.total_transport_wire_bytes() == outcome.report.wire_bytes
        summary = remote_ledger.summary()
        assert summary["transport_frames"] == outcome.report.frames
        assert summary["transport_wire_bytes"] == outcome.report.wire_bytes
        assert "transport_frames" not in twin_ledger.summary()

    def test_empty_ot_batch_short_circuits(self):
        driver = RemoteParty(timeout=TIMEOUT)
        outcome = driver.transfer_batch([], [], [])
        assert outcome.chosen_messages.shape == (0,)
        assert outcome.report.frames == 0

    def test_empty_comparison_batch_short_circuits(self, monkeypatch):
        # The same empty-batch rule as the OT session: no party process, no
        # frames, nothing on the ledger's transport side-list.
        def no_session(*_args, **_kwargs):
            raise AssertionError("an empty batch must not start a session")

        monkeypatch.setattr(RemoteParty, "_run_session", no_session)
        ledger = CommunicationLedger()
        driver = RemoteParty(bit_width=8, timeout=TIMEOUT, ledger=ledger)
        outcome = driver.compare_batch([], [])
        assert outcome.left_ge_right.shape == (0,)
        assert outcome.left_ge_right.dtype == bool
        assert outcome.report == TransportReport(0, 0, 0, 0, 0, {})
        assert outcome.report == driver.transfer_batch([], [], []).report
        assert not ledger.transport_frames
        assert not ledger.message_records()
        assert driver.accountant.snapshot() == TranscriptAccountant().snapshot()

    def test_operand_validation_mirrors_the_in_process_kernel(self):
        driver = RemoteParty(bit_width=8, timeout=TIMEOUT)
        with pytest.raises(ValueError):
            driver.compare_batch([1, 2], [3])
        with pytest.raises(ValueError):
            driver.compare_batch([300], [1])
        with pytest.raises(ValueError):
            driver.transfer_batch([1], [2], [5])
        with pytest.raises(ValueError):
            RemoteParty(bit_width=0)
        with pytest.raises(ValueError):
            # Remote OT moves whole bytes on the wire.
            driver.transfer_batch([1], [2], [1], message_bits=12)


# --------------------------------------------------------------------------- #
# Two-party equivalence: OT sessions (including the 64-bit pad fix)
# --------------------------------------------------------------------------- #
@pytest.mark.transport_smoke
class TestRemoteOTEquivalence:
    @pytest.mark.parametrize("message_bits", (32, 64))
    def test_matches_in_process_transfer_batch(self, message_bits):
        count = 17
        zero, one, choices = _ot_messages(message_bits, count, seed=5)

        remote_acc = TranscriptAccountant()
        rng = np.random.default_rng(7)
        driver = RemoteParty(accountant=remote_acc, rng=rng, timeout=TIMEOUT)
        if message_bits >= 64:
            replay = lambda g, n: g.integers(
                0, (1 << 64) - 1, size=(n // 2, 2), dtype=np.uint64, endpoint=True
            )
        else:
            replay = lambda g, n: g.integers(1 << message_bits, size=(n // 2, 2))
        outcome = assert_stream_contract(
            lambda _generator: driver.transfer_batch(
                zero, one, choices, message_bits=message_bits
            ),
            rng, 2 * count, draw=replay,
        )

        local_acc = TranscriptAccountant()
        local = ObliviousTransfer(local_acc, np.random.default_rng(7)).transfer_batch(
            zero, one, choices, message_bits=message_bits
        )
        assert np.array_equal(outcome.chosen_messages, local)
        assert outcome.chosen_messages.dtype == local.dtype
        assert remote_acc.snapshot() == local_acc.snapshot()
        assert remote_acc._log == local_acc._log
        assert outcome.report.protocol_payload_bytes == count * ot_payload_bytes(
            message_bits
        )
        assert outcome.report.protocol_payload_bytes == outcome.report.analytic_payload_bytes


# --------------------------------------------------------------------------- #
# One kernel: outcome bits come from the wire, the protocol from the comparator
# --------------------------------------------------------------------------- #
#: A CMP_CHOICES body the party must refuse although its CRC is valid.
BAD_CHOICES = {
    "byte outside the table": (lambda count: b"\x10" * count, "choice out of table range"),
    "one byte too many": (lambda count: b"\x01" * (count + 1), "CMP_CHOICES carries"),
    "one byte too few": (lambda count: b"\x01" * (count - 1), "CMP_CHOICES carries"),
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
                _serve_comparison(party, config, private, party.send)
            except ValueError as exc:
                raised.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            driver.recv(expected=(FrameKind.CONTROL,))  # ready
            driver.send(FrameKind.CMP_CHOICES, make_body(count))
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

        def corrupting(self, channel, kind, payload):
            if kind is FrameKind.CMP_CHOICES:
                payload = make_body(len(payload))
            original(self, channel, kind, payload)

        monkeypatch.setattr(RemoteParty, "_send", corrupting)
        driver = RemoteParty(bit_width=8, timeout=TIMEOUT)
        with pytest.raises(RemotePartyError, match=f"ValueError: .*{message}"):
            driver.compare_batch([3, 200, 7], [5, 100, 7], session_key="bad-choices")
        # A refused session charges nothing.
        assert driver.accountant.snapshot() == TranscriptAccountant().snapshot()


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
            ObliviousTransfer,
            "transfer_packed_table_batch",
            lambda self, tables, choices, table_size: np.zeros(np.shape(choices), dtype=bool),
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

        def inflated(self, kind, payload=b""):
            size = original(self, kind, payload)
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
# Failure model: chaos-killed peers are typed errors, never hangs
# --------------------------------------------------------------------------- #
@pytest.mark.transport_smoke
class TestChaosPeerDeath:
    def test_party_killed_before_first_frame_is_a_typed_error(self):
        driver = RemoteParty(
            bit_width=8, timeout=5.0, chaos=ChaosConfig(seed=0, crash_rate=1.0)
        )
        with pytest.raises(RemotePartyError) as excinfo:
            driver.compare_batch([1, 2], [2, 1], session_key="chaos-kill")
        assert "exit code 86" in str(excinfo.value)

    def test_party_killed_mid_ot_session_is_a_typed_error(self):
        # Pick a seed whose schedule survives the first two party sends
        # (ready, OT_REQUEST) and kills the third (the result reveal) — a
        # genuine mid-protocol death with frames already on the wire.
        session_key = "chaos-mid-ot"
        seed = next(
            s for s in range(1000)
            if chaos_action(ChaosConfig(seed=s, crash_rate=0.5), f"{session_key}/step-1", 1) is None
            and chaos_action(ChaosConfig(seed=s, crash_rate=0.5), f"{session_key}/step-2", 1) is None
            and chaos_action(ChaosConfig(seed=s, crash_rate=0.5), f"{session_key}/step-3", 1) == "crash"
        )
        driver = RemoteParty(
            timeout=5.0, chaos=ChaosConfig(seed=seed, crash_rate=0.5)
        )
        with pytest.raises(RemotePartyError, match="exit code 86"):
            driver.transfer_batch([1, 2], [3, 4], [0, 1], session_key=session_key)

    def test_killed_party_inside_a_worker_surfaces_as_failed_attempt(self):
        # The full runtime path: a worker dispatches a real two-party session,
        # chaos hard-kills the party, and the driver's typed error must come
        # back as FailedAttempt provenance — never a hang (every receive is
        # deadline-bounded).
        plan = WorkPlan()
        plan.add(
            CallableItem(
                target="helpers.chaos_probe:chaos_comparison_probe",
                kwargs=(
                    ("bit_width", 8), ("count", 4), ("crash_rate", 1.0),
                    ("seed", 0), ("timeout", 5.0),
                ),
                label="chaos-probe", timeout=60.0,
            )
        )
        executor = ProcessExecutor(max_workers=1, retries=0, backoff_base=0.0)
        with pytest.raises(WorkItemFailure) as excinfo:
            executor.execute(plan)
        [key] = plan.requests
        attempts = excinfo.value.failure_attempts[key]
        assert [failed.kind for failed in attempts] == ["error"]
        assert "RemotePartyError" in attempts[0].reason

    def test_probe_without_chaos_completes_inside_a_worker(self):
        # Control arm: the same nested-process path succeeds when the chaos
        # schedule injects nothing (this also exercises spawning a party from
        # a daemonic pool worker).
        plan = WorkPlan()
        plan.add(
            CallableItem(
                target="helpers.chaos_probe:chaos_comparison_probe",
                kwargs=(
                    ("bit_width", 8), ("count", 6), ("crash_rate", 0.0),
                    ("seed", 1), ("timeout", 10.0),
                ),
                label="probe", timeout=60.0,
            )
        )
        report = ProcessExecutor(max_workers=1, retries=1, backoff_base=0.0).execute(plan)
        [key] = plan.requests
        value = report.records[key].value
        assert value["count"] == 6
        assert value["wire_bytes"] > 0
        assert 0.0 <= value["true_fraction"] <= 1.0


# --------------------------------------------------------------------------- #
# Ledger attribution of transport frames
# --------------------------------------------------------------------------- #
class TestLedgerTransportFrames:
    def test_side_list_never_touches_the_canonical_transcript(self):
        ledger = CommunicationLedger()
        before = ledger.message_records()
        frame = ledger.record_transport_frame(0, 1, "CMP_CHOICES", 40, 49)
        assert isinstance(frame, TransportFrame)
        assert ledger.message_records() == before
        assert ledger.total_transport_frames() == 1
        assert ledger.total_transport_payload_bytes() == 40
        assert ledger.total_transport_wire_bytes() == 49

    def test_summary_keys_appear_only_when_frames_exist(self):
        ledger = CommunicationLedger()
        assert "transport_frames" not in ledger.summary()
        ledger.record_transport_frame(0, 1, "CONTROL", 5, 14)
        summary = ledger.summary()
        assert summary["transport_frames"] == 1
        assert summary["transport_payload_bytes"] == 5
        assert summary["transport_wire_bytes"] == 14
        ledger.reset()
        assert not ledger.transport_frames
        assert "transport_frames" not in ledger.summary()

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            TransportFrame(0, 1, "CONTROL", payload_bytes=-1, wire_bytes=0, round_index=0)
        with pytest.raises(ValueError):
            TransportFrame(0, 1, "CONTROL", payload_bytes=10, wire_bytes=9, round_index=0)


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
        rng = np.random.default_rng(bit_width)
        driver = RemoteParty(
            bit_width=bit_width, accountant=remote_acc, rng=rng, timeout=TIMEOUT
        )
        outcome = assert_stream_contract(
            lambda _generator: driver.compare_batch(left, right), rng, 0
        )
        local_acc = TranscriptAccountant()
        batch = SecureComparator(
            bit_width=bit_width, accountant=local_acc,
            rng=np.random.default_rng(bit_width),
        ).compare_batch(left, right, execute=True)
        assert np.array_equal(outcome.left_ge_right, batch.left_ge_right)
        assert remote_acc.snapshot() == local_acc.snapshot()
        assert remote_acc._log == local_acc._log
        assert outcome.report.protocol_payload_bytes == count * outcome.cost.bits // 8

    @pytest.mark.parametrize("message_bits", (8, 16, 24, 32, 48, 64))
    def test_ot_equivalence_across_widths(self, message_bits):
        count = 29
        zero, one, choices = _ot_messages(message_bits, count, seed=message_bits)
        remote_acc = TranscriptAccountant()
        rng = np.random.default_rng(message_bits)
        driver = RemoteParty(accountant=remote_acc, rng=rng, timeout=TIMEOUT)
        outcome = driver.transfer_batch(zero, one, choices, message_bits=message_bits)
        local_acc = TranscriptAccountant()
        local = ObliviousTransfer(
            local_acc, np.random.default_rng(message_bits)
        ).transfer_batch(zero, one, choices, message_bits=message_bits)
        assert np.array_equal(outcome.chosen_messages, local)
        assert remote_acc.snapshot() == local_acc.snapshot()
        assert remote_acc._log == local_acc._log
        assert outcome.report.protocol_payload_bytes == count * ot_payload_bytes(
            message_bits
        )
