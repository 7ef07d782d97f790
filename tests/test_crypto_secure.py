"""Tests for the transcript accountant, secure comparison and Alg. 2's
secure objective difference."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.oracles import (
    log_degree_bucket_reference,
    secure_compare_reference,
    transcript_reveals_only_sizes,
)

from repro import obs
from repro.core.greedy import log_degree_buckets
from repro.core.mcmc import secure_objective_difference
from repro.crypto import SecureComparator, TranscriptAccountant
from repro.crypto.oblivious_transfer import transfer_packed_table_batch

TOP_64 = (1 << 64) - 1


def _executed(comparator, left, right):
    return comparator.compare_batch([left], [right], execute=True)


class TestTranscriptAccountant:
    def test_record_and_snapshot(self):
        accountant = TranscriptAccountant()
        accountant.record("ot-n", 144)
        accountant.record("and-gate", 8)
        snapshot = accountant.snapshot()
        assert snapshot["messages"] == 2
        assert snapshot["bits"] == 144 + 8
        assert snapshot["ot_invocations"] == 0

    def test_merge(self):
        a, b = TranscriptAccountant(), TranscriptAccountant()
        a.record("ot", 10)
        b.record("ot", 20)
        b.comparisons = 3
        a.merge(b)
        assert a.bits == 30
        assert a.messages == 2
        assert a.comparisons == 3


class TestSecureComparator:
    def test_basic_comparisons(self):
        comparator = SecureComparator(bit_width=16)
        batch = comparator.compare_batch([5, 3, 7], [3, 5, 7], execute=True)
        assert batch.left_ge_right.tolist() == [True, False, True]

    def test_result_reports_costs(self):
        batch = _executed(SecureComparator(bit_width=32), 1000, 999)
        assert batch.left_ge_right.shape == (1,)
        assert batch.cost.bits > 0
        assert batch.cost.ot_invocations > 0

    def test_cost_grows_with_bit_width(self):
        narrow = _executed(SecureComparator(bit_width=8), 1, 2)
        wide = _executed(SecureComparator(bit_width=48), 1, 2)
        assert wide.cost.bits > narrow.cost.bits

    def test_argmax(self):
        comparator = SecureComparator(bit_width=16)
        assert comparator.argmax([3, 9, 2, 9]) == 1  # earliest index wins ties
        with pytest.raises(ValueError):
            comparator.argmax([])

    def test_validation(self):
        comparator = SecureComparator(bit_width=8)
        with pytest.raises(ValueError):
            comparator.compare_batch([-1], [2], execute=True)
        with pytest.raises(ValueError):
            comparator.compare_batch([2], [300], execute=True)
        with pytest.raises(ValueError):
            SecureComparator(bit_width=0)
        with pytest.raises(ValueError):
            SecureComparator(bit_width=65)
        # 64-bit operands are legal since the batch kernels went uint64.
        assert _executed(SecureComparator(bit_width=64), 2 ** 64 - 1, 0).left_ge_right[0]

    def test_accountant_accumulates_comparisons(self):
        accountant = TranscriptAccountant()
        comparator = SecureComparator(bit_width=16, accountant=accountant)
        _executed(comparator, 10, 20)
        _executed(comparator, 20, 10)
        assert accountant.comparisons == 2

    @given(st.integers(0, 2 ** 20 - 1), st.integers(0, 2 ** 20 - 1))
    @settings(max_examples=60, deadline=None)
    def test_comparison_correctness_property(self, left, right):
        batch_acc, oracle_acc = TranscriptAccountant(), TranscriptAccountant()
        batch = _executed(SecureComparator(bit_width=20, accountant=batch_acc), left, right)
        oracle = secure_compare_reference(
            SecureComparator(bit_width=20, accountant=oracle_acc), left, right
        )
        assert bool(batch.left_ge_right[0]) == oracle == (left >= right)
        assert batch_acc.snapshot() == oracle_acc.snapshot()
        assert batch_acc._log == oracle_acc._log


class TestTableOT:
    """The 1-out-of-N table OT of 1-bit messages behind every protocol leaf."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_receiver_gets_chosen_entry(self, dtype):
        table_size = 8 * np.dtype(dtype).itemsize
        rng = np.random.default_rng(table_size)
        top = np.iinfo(dtype).max
        tables = rng.integers(0, top, size=64, dtype=dtype, endpoint=True)
        tables[:2] = top, 0
        choices = rng.integers(0, table_size, size=64).astype(np.uint8)
        choices[:2] = table_size - 1  # the last entry of a full and an empty table
        got = transfer_packed_table_batch(tables, choices, table_size)
        # Entry c of a table is character c of its little-endian bit string.
        expected = [
            format(int(word), f"0{table_size}b")[::-1][int(choice)] == "1"
            for word, choice in zip(tables, choices)
        ]
        assert got.dtype == bool
        assert got.tolist() == expected

    @given(st.integers(0, (1 << 16) - 1), st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_transfer_correctness_property(self, word, choice):
        got = transfer_packed_table_batch(
            np.array([word], dtype=np.uint16), np.array([choice], dtype=np.uint8), 16
        )
        assert bool(got[0]) == bool(word & (1 << choice))

    def test_empty_batch_transfers_nothing(self):
        got = transfer_packed_table_batch(
            np.zeros(0, dtype=np.uint16), np.zeros(0, dtype=np.uint8), 16
        )
        assert got.dtype == bool and got.shape == (0,)

    def test_leaf_shares_are_the_block_truth_tables(self):
        comparator = SecureComparator(bit_width=4)
        left, right = np.meshgrid(np.arange(16, dtype=np.uint8), np.arange(16, dtype=np.uint8))
        greater, equal = comparator.leaf_shares(left.reshape(1, -1), right.reshape(1, -1))
        assert greater.ravel().tolist() == (left > right).ravel().tolist()
        assert equal.ravel().tolist() == (left == right).ravel().tolist()

    def test_executing_the_protocol_charges_nothing(self):
        # The OTs and the combine tree are free; only charge_batch charges.
        accountant = TranscriptAccountant()
        comparator = SecureComparator(bit_width=16, accountant=accountant)
        left = np.array([5, 300, 0], dtype=np.uint64)
        right_blocks = comparator.block_rows(np.array([7, 300, 65535], dtype=np.uint64))
        with obs.tracing() as tracer:
            outcomes = comparator.execute_batch(
                left, lambda left_blocks: comparator.leaf_shares(left_blocks, right_blocks)
            )
        assert outcomes.tolist() == [False, True, False]
        assert accountant.snapshot() == TranscriptAccountant().snapshot()
        assert accountant._log == []
        assert tracer.metrics.snapshot()["counters"] == {}


class TestWideComparisons:
    """64-bit operands run the protocol through the uint64 path."""

    EDGES = [0, 1, (1 << 63) - 1, 1 << 63, TOP_64 - 1, TOP_64]

    def test_64_bit_edges_match_the_oracle(self):
        pairs = [(left, right) for left in self.EDGES for right in self.EDGES]
        batch_acc, oracle_acc = TranscriptAccountant(), TranscriptAccountant()
        batch = SecureComparator(64, accountant=batch_acc).compare_batch(
            [left for left, _ in pairs], [right for _, right in pairs], execute=True
        )
        oracle = SecureComparator(64, accountant=oracle_acc)
        expected = [secure_compare_reference(oracle, left, right) for left, right in pairs]
        assert batch.left_ge_right.tolist() == expected
        assert expected == [left >= right for left, right in pairs]
        assert batch_acc.snapshot() == oracle_acc.snapshot()
        assert batch_acc._log == oracle_acc._log

    def test_uint64_arrays_pass_through_both_paths(self):
        left = np.array(self.EDGES, dtype=np.uint64)
        right = left[::-1].copy()
        executed = SecureComparator(64).compare_batch(left, right, execute=True)
        analytic = SecureComparator(64).compare_batch(left, right)
        expected = [l >= r for l, r in zip(self.EDGES, self.EDGES[::-1])]
        assert executed.left_ge_right.tolist() == analytic.left_ge_right.tolist() == expected

    @pytest.mark.parametrize(
        "operands",
        [[1 << 64], [TOP_64, 1 << 64], [-1, 1 << 63], [-1]],
        ids=["two-to-the-64", "top-then-two-to-the-64", "negative-then-wide", "negative"],
    )
    def test_out_of_range_64_bit_operands_are_rejected(self, operands):
        comparator = SecureComparator(bit_width=64)
        zeros = [0] * len(operands)
        with pytest.raises(ValueError):
            comparator.compare_batch(operands, zeros, execute=True)
        with pytest.raises(ValueError):
            comparator.compare_batch(zeros, operands)
        with pytest.raises(ValueError):
            comparator.argmax(operands)
        # A batch is rejected whole, before anything is charged.
        assert comparator.accountant.snapshot() == TranscriptAccountant().snapshot()
        with pytest.raises(ValueError):
            for value in operands:
                secure_compare_reference(comparator, value, 0)


class TestBlockDecomposition:
    @pytest.mark.parametrize("bit_width", [1, 5, 8, 63, 64])
    def test_block_rows_are_big_endian_blocks(self, bit_width):
        comparator = SecureComparator(bit_width=bit_width)
        top = (1 << bit_width) - 1
        values = [0, top, top >> 1, 1 << (bit_width - 1)]
        rows = comparator.block_rows(np.array(values, dtype=np.uint64))
        num_blocks = -(-bit_width // 4)
        assert rows.dtype == np.uint8 and rows.shape == (num_blocks, len(values))
        for column, value in enumerate(values):
            assert rows[:, column].tolist() == [
                (value >> (4 * block)) & 15 for block in reversed(range(num_blocks))
            ]


#: Widths on both sides of every change of the block split's dtype.
SPLIT_EDGE_WIDTHS = (1, 8, 9, 16, 17, 32, 33, 64)


@st.composite
def width_and_operands(draw, widths=st.integers(1, 64)):
    """A bit width and operand pairs of it: random ones, ``0``, ``2^w - 1``
    and equal pairs."""
    bit_width = draw(widths)
    top = (1 << bit_width) - 1
    values = st.integers(0, top)
    pairs = draw(st.lists(st.tuples(values, values), max_size=6))
    equal = draw(st.lists(values, max_size=3))
    pairs += [(0, top), (top, 0), (0, 0), (top, top)] + [(value, value) for value in equal]
    return bit_width, pairs


class TestComputedBlockProtocol:
    """The narrowed block split and party B's computed truth words."""

    @staticmethod
    def _scalar_blocks(value, bit_width):
        return [(value >> (4 * block)) & 15 for block in reversed(range(-(-bit_width // 4)))]

    @given(st.one_of(width_and_operands(), width_and_operands(st.sampled_from(SPLIT_EDGE_WIDTHS))))
    @settings(max_examples=80, deadline=None)
    def test_block_rows_match_the_per_value_split(self, case):
        bit_width, pairs = case
        comparator = SecureComparator(bit_width=bit_width)
        values = [value for pair in pairs for value in pair]
        rows = comparator.block_rows(np.array(values, dtype=np.uint64))
        assert rows.dtype == np.uint8
        assert rows.T.tolist() == [self._scalar_blocks(value, bit_width) for value in values]

    @pytest.mark.parametrize("bit_width", SPLIT_EDGE_WIDTHS)
    def test_the_split_runs_in_the_narrowest_dtype(self, bit_width):
        comparator = SecureComparator(bit_width=bit_width)
        expected = next(bits for bits in (8, 16, 32, 64) if bits >= bit_width)
        assert comparator._block_dtype == np.dtype(f"uint{expected}")

    @given(width_and_operands())
    @settings(max_examples=60, deadline=None)
    def test_executed_outcomes_are_the_comparisons(self, case):
        bit_width, pairs = case
        left, right = zip(*pairs)
        outcomes = SecureComparator(bit_width=bit_width).compare_batch(left, right, execute=True)
        assert outcomes.left_ge_right.tolist() == [a >= b for a, b in pairs]

    def test_truth_words_are_their_definition_for_every_block_value(self, monkeypatch):
        # Party B's words as handed to the OT: bit c of the greater word is
        # c > b, bit c of the equality word is c == b.
        words = []

        def recording_transfer(tables, choices, table_size):
            words.append(tables)
            return transfer_packed_table_batch(tables, choices, table_size)

        monkeypatch.setattr(
            "repro.crypto.secure_compare.transfer_packed_table_batch", recording_transfer
        )
        blocks = np.arange(16, dtype=np.uint8)
        SecureComparator(bit_width=4).leaf_shares(np.zeros(16, dtype=np.uint8), blocks)
        greater, equal = words
        assert greater.dtype == equal.dtype == np.uint16
        assert greater.tolist() == [sum(1 << c for c in range(16) if c > b) for b in range(16)]
        assert equal.tolist() == [sum(1 << c for c in range(16) if c == b) for b in range(16)]


class TestChargeBatch:
    @pytest.mark.parametrize("bit_width", [1, 5, 12, 20, 63, 64])
    def test_charges_count_times_the_oracle_transcript(self, bit_width):
        oracle_acc = TranscriptAccountant()
        oracle = SecureComparator(bit_width, accountant=oracle_acc)
        for left, right in ((0, 0), (1, 0), (0, 1)):
            secure_compare_reference(oracle, left, right)
        charged = TranscriptAccountant()
        cost = SecureComparator(bit_width, accountant=charged).charge_batch(3)
        assert charged.snapshot() == oracle_acc.snapshot()
        assert charged._log == oracle_acc._log
        assert cost.num_blocks == -(-bit_width // 4)
        assert (3 * cost.messages, 3 * cost.bits) == (oracle_acc.messages, oracle_acc.bits)

    def test_an_empty_batch_charges_nothing(self):
        accountant = TranscriptAccountant()
        comparator = SecureComparator(bit_width=24, accountant=accountant)
        assert comparator.compare_batch([], [], execute=True).left_ge_right.shape == (0,)
        assert accountant.snapshot() == TranscriptAccountant().snapshot()
        assert accountant._log == []


class TestOracleValidation:
    def test_the_scalar_oracle_rejects_what_the_batch_rejects(self):
        comparator = SecureComparator(bit_width=8)
        for left, right in ((-1, 2), (2, 300)):
            with pytest.raises(ValueError):
                secure_compare_reference(comparator, left, right)
            with pytest.raises(ValueError):
                comparator.compare_batch([left], [right], execute=True)


class TestZeroKnowledgeProtocols:
    """Definition 2's comparisons: Alg. 1's degree buckets and Alg. 2's
    objective difference, revealing only comparison bits and sizes."""

    def test_log_degree_bucket(self):
        degrees = [0, 1, 3, 20, 150]
        assert log_degree_buckets(degrees).tolist() == [0, 0, 1, 3, 5]
        assert [log_degree_bucket_reference(d) for d in degrees] == [0, 0, 1, 3, 5]

    def test_degree_comparison_uses_buckets(self):
        # Degrees 10 and 12 share the bucket round(ln) = 2: both >= each other.
        # Degree 100 (bucket 5) vs degree 2 (bucket 1).
        left, right = log_degree_buckets([10, 12, 100, 2]), log_degree_buckets([12, 10, 2, 100])
        batch = SecureComparator(bit_width=8).compare_batch(left, right, execute=True)
        assert batch.left_ge_right.tolist() == [True, True, True, False]

    @given(st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_degree_comparison_property(self, left, right):
        buckets = log_degree_buckets([left, right])
        batch = SecureComparator(bit_width=8).compare_batch(
            buckets[:1], buckets[1:], execute=True
        )
        expected = log_degree_bucket_reference(left) >= log_degree_bucket_reference(right)
        assert bool(batch.left_ge_right[0]) == expected

    def test_objective_difference_matches_plain_subtraction(self):
        comparator = SecureComparator(bit_width=24)
        assert secure_objective_difference(comparator, 10, 7) == 3
        assert secure_objective_difference(comparator, 4, 9) == -5

    @pytest.mark.parametrize("before, after", [(10, 7), (4, 9), (0, 0), ((1 << 24) - 1, 0)])
    def test_objective_difference_charges_one_scalar_comparison(self, before, after):
        # The one-element executed batch leaves the accountant — counters and
        # capped log — exactly where one scalar protocol comparison plus the
        # subtraction record would.
        batched, oracle = TranscriptAccountant(), TranscriptAccountant()
        secure_objective_difference(SecureComparator(24, accountant=batched), before, after)
        secure_compare_reference(SecureComparator(24, accountant=oracle), before, after)
        oracle.record("secure-subtraction", 48)
        assert batched.snapshot() == oracle.snapshot()
        assert batched._log == oracle._log

    def test_objective_difference_refuses_a_disagreeing_comparison(self, monkeypatch):
        monkeypatch.setattr(
            "repro.crypto.secure_compare.transfer_packed_table_batch",
            lambda tables, choices, table_size: np.zeros(np.shape(choices), dtype=bool),
        )
        with pytest.raises(RuntimeError, match="disagrees with computed difference"):
            secure_objective_difference(SecureComparator(bit_width=24), 10, 7)

    def test_transcript_contains_no_operand_values(self):
        accountant = TranscriptAccountant()
        comparator = SecureComparator(bit_width=24, accountant=accountant)
        comparator.compare_batch([12345, 12345], [678, 999], execute=True)
        secure_objective_difference(comparator, 55, 44)
        assert transcript_reveals_only_sizes(accountant)
        accountant.record("workload=12345", 8)
        assert not transcript_reveals_only_sizes(accountant)
