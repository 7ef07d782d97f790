"""Tests for oblivious transfer, secure comparison and the ZK protocols."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    ComparisonResult,
    DegreeComparisonProtocol,
    ObliviousTransfer,
    SecureComparator,
    TranscriptAccountant,
    WorkloadComparisonProtocol,
    log_degree_bucket,
    verify_zero_knowledge_transcript,
)


class TestTranscriptAccountant:
    def test_record_and_snapshot(self):
        accountant = TranscriptAccountant()
        accountant.record("ot", 64)
        accountant.record_ot(32)
        snapshot = accountant.snapshot()
        assert snapshot["messages"] == 2
        assert snapshot["bits"] == 64 + (2 * 32 + 128)
        assert snapshot["ot_invocations"] == 1

    def test_merge(self):
        a, b = TranscriptAccountant(), TranscriptAccountant()
        a.record("ot", 10)
        b.record("ot", 20)
        b.comparisons = 3
        a.merge(b)
        assert a.bits == 30
        assert a.messages == 2
        assert a.comparisons == 3


class TestObliviousTransfer:
    def test_receiver_gets_chosen_message(self):
        ot = ObliviousTransfer(rng=np.random.default_rng(0))
        result0 = ot.transfer(11, 22, choice=0)
        result1 = ot.transfer(11, 22, choice=1)
        assert result0.chosen_message == 11
        assert result1.chosen_message == 22

    def test_communication_is_accounted(self):
        accountant = TranscriptAccountant()
        ot = ObliviousTransfer(accountant=accountant, rng=np.random.default_rng(0))
        ot.transfer(1, 2, choice=0, message_bits=16)
        assert accountant.ot_invocations == 1
        assert accountant.bits == 2 * 16 + 128

    def test_validation(self):
        ot = ObliviousTransfer(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            ot.transfer(1, 2, choice=2)
        with pytest.raises(ValueError):
            ot.transfer(2 ** 40, 2, choice=0, message_bits=32)

    def test_transfer_table(self):
        ot = ObliviousTransfer(rng=np.random.default_rng(0))
        table = tuple(range(16))
        assert ot.transfer_table(table, 7, message_bits=4) == 7
        with pytest.raises(ValueError):
            ot.transfer_table(table, 20)

    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1), st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_transfer_correctness_property(self, m0, m1, choice):
        ot = ObliviousTransfer(rng=np.random.default_rng(m0 ^ m1))
        result = ot.transfer(m0, m1, choice, message_bits=16)
        assert result.chosen_message == (m1 if choice else m0)


class TestSecureComparator:
    def test_basic_comparisons(self):
        comparator = SecureComparator(bit_width=16, rng=np.random.default_rng(0))
        assert comparator.compare(5, 3).left_ge_right
        assert not comparator.compare(3, 5).left_ge_right
        assert comparator.compare(7, 7).left_ge_right

    def test_result_reports_costs(self):
        comparator = SecureComparator(bit_width=32, rng=np.random.default_rng(0))
        result = comparator.compare(1000, 999)
        assert isinstance(result, ComparisonResult)
        assert result.bits_exchanged > 0
        assert result.ot_invocations > 0
        assert result.left_lt_right is False

    def test_cost_grows_with_bit_width(self):
        narrow = SecureComparator(bit_width=8, rng=np.random.default_rng(0)).compare(1, 2)
        wide = SecureComparator(bit_width=48, rng=np.random.default_rng(0)).compare(1, 2)
        assert wide.bits_exchanged > narrow.bits_exchanged

    def test_argmax(self):
        comparator = SecureComparator(bit_width=16, rng=np.random.default_rng(0))
        assert comparator.argmax([3, 9, 2, 9]) == 1  # earliest index wins ties
        with pytest.raises(ValueError):
            comparator.argmax([])

    def test_validation(self):
        comparator = SecureComparator(bit_width=8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            comparator.compare(-1, 2)
        with pytest.raises(ValueError):
            comparator.compare(2, 300)
        with pytest.raises(ValueError):
            SecureComparator(bit_width=0)
        with pytest.raises(ValueError):
            SecureComparator(bit_width=65)
        # 64-bit operands are legal since the batch kernels went uint64.
        assert SecureComparator(bit_width=64).compare(2 ** 64 - 1, 0).left_ge_right

    def test_accountant_accumulates_comparisons(self):
        accountant = TranscriptAccountant()
        comparator = SecureComparator(bit_width=16, accountant=accountant,
                                      rng=np.random.default_rng(0))
        comparator.compare(10, 20)
        comparator.compare(20, 10)
        assert accountant.comparisons == 2

    @given(st.integers(0, 2 ** 20 - 1), st.integers(0, 2 ** 20 - 1))
    @settings(max_examples=60, deadline=None)
    def test_comparison_correctness_property(self, left, right):
        comparator = SecureComparator(bit_width=20, rng=np.random.default_rng(left ^ right))
        assert comparator.compare(left, right).left_ge_right == (left >= right)


class TestZeroKnowledgeProtocols:
    def test_log_degree_bucket(self):
        assert log_degree_bucket(0) == 0
        assert log_degree_bucket(1) == 0
        assert log_degree_bucket(3) == 1
        assert log_degree_bucket(20) == 3
        assert log_degree_bucket(150) == 5

    def test_degree_comparison_uses_buckets(self):
        protocol = DegreeComparisonProtocol(rng=np.random.default_rng(0))
        # Degrees 10 and 12 share the bucket round(ln) = 2: both >= each other.
        assert protocol.compare_degrees(10, 12).left_bucket_ge_right
        assert protocol.compare_degrees(12, 10).left_bucket_ge_right
        # Degree 100 (bucket 5) vs degree 2 (bucket 1).
        assert protocol.compare_degrees(100, 2).left_bucket_ge_right
        assert not protocol.compare_degrees(2, 100).left_bucket_ge_right

    def test_degree_comparison_accounts_bits(self):
        accountant = TranscriptAccountant()
        protocol = DegreeComparisonProtocol(accountant=accountant, rng=np.random.default_rng(0))
        outcome = protocol.compare_degrees(5, 50)
        assert outcome.bits_exchanged > 0
        assert accountant.comparisons == 1

    def test_workload_protocol_local_maximum(self):
        protocol = WorkloadComparisonProtocol(rng=np.random.default_rng(0))
        assert protocol.is_local_maximum(10, [3, 9, 10])
        assert not protocol.is_local_maximum(5, [3, 9])

    def test_workload_protocol_argmax(self):
        protocol = WorkloadComparisonProtocol(rng=np.random.default_rng(0))
        assert protocol.argmax([4, 8, 2]) == 1

    def test_objective_difference_matches_plain_subtraction(self):
        protocol = WorkloadComparisonProtocol(rng=np.random.default_rng(0))
        assert protocol.objective_difference(10, 7) == 3
        assert protocol.objective_difference(4, 9) == -5

    def test_transcript_contains_no_operand_values(self):
        accountant = TranscriptAccountant()
        protocol = WorkloadComparisonProtocol(accountant=accountant, rng=np.random.default_rng(0))
        protocol.is_local_maximum(12345, [678, 999])
        protocol.objective_difference(55, 44)
        assert verify_zero_knowledge_transcript(accountant)

    @given(st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_degree_comparison_property(self, left, right):
        protocol = DegreeComparisonProtocol(rng=np.random.default_rng(left * 301 + right))
        expected = log_degree_bucket(left) >= log_degree_bucket(right)
        assert protocol.compare_degrees(left, right).left_bucket_ge_right == expected
