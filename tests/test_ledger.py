"""The columnar ``CommunicationLedger`` against a per-row list oracle.

Random programs mix every recording call — single rows, bulk blocks (empty
ones and ragged per-row rounds included), drops, transport frames, compute
and round advances — on a ledger and on :class:`helpers.oracles.LedgerOracle`
and then compare every query.  A bulk column comes as a list, as a stride-0
view of one value, or as a slice of one read-only array that every block of
the program shares.  The same programs pin the engine's capture path
(``mark`` → ``since`` → ``replay`` into a ledger some rounds ahead, pickled
and not), that a replayed stride-0 column stays stride-0, that every stored
column is read-only, and that a ``deepcopy`` shares nothing with its
original.  The reductions (column totals, label counts, ``summary``) read a
stride-0 integer column as one value; a generated test holds them to those
of a deep copy, whose columns are all materialised.  Two ``tracemalloc``
guards hold the bulk recording sites to O(blocks) bytes, not O(rows).

Costs are multiples of 1/4, so every summation order gives the same float
and the comparisons stay exact.
"""

from __future__ import annotations

import copy
import pickle
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from helpers.oracles import LedgerOracle
from repro.core.mcmc import _IncrementalBalancingKernel
from repro.core.workload import Assignment
from repro.crypto import SecureComparator
from repro.crypto.secure_compare import comparison_cost
from repro.crypto.transport import charge_comparison_ledger
from repro.federation import SERVER_ID, CommunicationLedger, FederatedEnvironment, MessageKind
from repro.federation.network import constant_column
from repro.graph import Graph

NUM_DEVICES = 4
TABLES = ("messages", "dropped", "frames", "computation")
TIER1 = dict(max_examples=50, deadline=2000)
WIDE = dict(max_examples=1000, deadline=None)

ids = st.integers(SERVER_ID, NUM_DEVICES + 1)  # the server and out-of-range ids too
kinds = st.sampled_from(list(MessageKind))
descriptions = st.sampled_from(["", "a", "b"])
sizes = st.integers(0, 100)
rounds = st.integers(0, 8)
costs = st.integers(0, 400).map(lambda quarter: quarter / 4)


def _shared(values) -> np.ndarray:
    """One read-only array of valid column values that blocks slice into."""
    array = np.resize(np.asarray(values), 64)
    array.flags.writeable = False
    return array


#: Per bulk column type, its element strategy and the array its "shared"
#: columns are slices of.
COLUMNS = {
    "id": (ids, _shared(np.arange(SERVER_ID, NUM_DEVICES + 2))),
    "size": (sizes, _shared(np.arange(0, 101, 7))),
    "round": (rounds, _shared(np.arange(9))),
    "cost": (costs, _shared(np.arange(0, 401, 13) / 4)),
}


def _columns(draw, *names):
    """Parallel columns, one per :data:`COLUMNS` type, of one drawn length (maybe 0).

    Each is a list, a stride-0 view of one drawn value, or a slice of the
    type's shared array.
    """
    length = draw(st.integers(0, 6))
    columns = []
    for name in names:
        element, shared = COLUMNS[name]
        form = draw(st.sampled_from(["list", "constant", "shared"]))
        if form == "list":
            columns.append(draw(st.lists(element, min_size=length, max_size=length)))
        elif form == "constant":
            columns.append(np.broadcast_to(shared.dtype.type(draw(element)), length))
        else:
            start = draw(st.integers(0, shared.shape[0] - length))
            columns.append(shared[start : start + length])
    return columns


@st.composite
def message_blocks(draw):
    """``send_many`` / ``drop_many`` arguments, per-row rounds ragged."""
    senders, recipients, sized, rounded = _columns(draw, "id", "id", "size", "round")
    return senders, recipients, draw(kinds), sized, rounded, draw(descriptions)


@st.composite
def compute_blocks(draw):
    devices, charged = _columns(draw, "id", "cost")
    return devices, charged, draw(descriptions)


@st.composite
def frames(draw):
    payload = draw(sizes)
    wire = payload + draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["CONTROL", "CMP_AND"]))
    return draw(ids), draw(ids), kind, payload, wire, draw(descriptions)


def operations():
    message = st.tuples(ids, ids, kinds, sizes, descriptions)
    return st.one_of(
        st.tuples(st.just("send"), message),
        st.tuples(st.just("drop"), message),
        st.tuples(st.just("send_many"), message_blocks()),
        st.tuples(st.just("drop_many"), message_blocks()),
        st.tuples(st.just("record_transport_frame"), frames()),
        st.tuples(st.just("compute"), st.tuples(ids, costs, descriptions)),
        st.tuples(st.just("compute_many"), compute_blocks()),
        st.tuples(st.just("next_round"), st.just(())),
    )


programs = st.lists(operations(), max_size=25)


def _run(program, *targets):
    for name, arguments in program:
        for target in targets:
            getattr(target, name)(*arguments)


def _assert_matches(ledger: CommunicationLedger, oracle: LedgerOracle) -> None:
    assert ledger.current_round == oracle.current_round
    for num_devices in (None, NUM_DEVICES):
        assert ledger.summary(num_devices) == oracle.summary(num_devices)
    assert ledger.message_records() == oracle.message_records()
    records = ledger.message_records()
    assert all(type(value) in (int, str) for record in records for value in record)
    np.testing.assert_array_equal(
        ledger.per_device_message_counts(NUM_DEVICES),
        oracle.per_device_message_counts(NUM_DEVICES),
    )
    np.testing.assert_array_equal(
        ledger.per_device_compute(NUM_DEVICES), oracle.per_device_compute(NUM_DEVICES)
    )
    for name in TABLES:
        table, rows = getattr(ledger, name), getattr(oracle, name)
        assert table.rows() == rows, name
        assert len(table) == len(rows), name


def _blocks(ledger: CommunicationLedger) -> list:
    """Every stored block of every table, label column included."""
    return [block for name in TABLES for block in getattr(ledger, name).since(0)[1]]


def _assert_shares_nothing(copied: CommunicationLedger, original: CommunicationLedger) -> None:
    theirs = [column for block in _blocks(original) for column in block]
    for block in _blocks(copied):
        for column in block:
            assert not column.flags.writeable
            assert not any(np.may_share_memory(column, other) for other in theirs)


def _check_program(prefix, suffix, target_prefix, ahead):
    ledger, oracle = CommunicationLedger(), LedgerOracle()
    _run(prefix, ledger, oracle)
    mark = ledger.mark()
    sizes_at_mark = {name: len(getattr(oracle, name)) for name in TABLES}
    round_at_mark = oracle.current_round
    twin = copy.deepcopy(ledger)
    twin_oracle = copy.deepcopy(oracle)
    _assert_shares_nothing(twin, ledger)
    _run(suffix, ledger, oracle)
    _assert_matches(ledger, oracle)

    # The copy saw none of the suffix; recording on it leaves the original alone.
    _assert_matches(twin, twin_oracle)
    twin.send(0, 1, MessageKind.OTHER, 5, description="twin")
    twin.compute(0, 1.0)
    _assert_matches(ledger, oracle)

    # since(mark), as is and through a pickle, replays `ahead` rounds later
    # into a ledger with rows (and labels) of its own.
    live = ledger.since(mark)
    replayed = []
    for delta in (live, pickle.loads(pickle.dumps(live))):
        target, target_oracle = CommunicationLedger(), LedgerOracle()
        _run(target_prefix, target, target_oracle)
        while target.current_round < round_at_mark + ahead:
            target.next_round()
            target_oracle.next_round()
        offset = target.current_round - round_at_mark
        target_mark = target.mark()
        target.replay(delta)
        for name, start in sizes_at_mark.items():
            getattr(target_oracle, name).extend(
                LedgerOracle.shifted(getattr(oracle, name)[start:], offset)
            )
        target_oracle.current_round += oracle.current_round - round_at_mark
        _assert_matches(target, target_oracle)
        replayed.append(target.since(target_mark))

    # Not pickled, a replayed stride-0 column (a shifted round, a recoded
    # label) is still stride-0; a pickle materialises every column (the
    # spilled layout); either way every replayed column is read-only.
    direct, unpickled = (delta.tables for delta in replayed)
    for (_, source), (_, blocks), (_, materialised) in zip(live.tables, direct, unpickled):
        for source_block, block, dense in zip(source, blocks, materialised, strict=True):
            for source_column, column, dense_column in zip(source_block, block, dense, strict=True):
                assert not column.flags.writeable and not dense_column.flags.writeable
                assert source_column.strides != (0,) or column.strides == (0,)
                assert dense_column.strides == (dense_column.itemsize,)


@settings(**TIER1)
@given(programs, programs, programs, st.integers(0, 3))
def test_ledger_equals_the_row_oracle(prefix, suffix, target_prefix, ahead):
    _check_program(prefix, suffix, target_prefix, ahead)


@pytest.mark.slow
@settings(**WIDE)
@given(
    st.lists(operations(), max_size=80),
    st.lists(operations(), max_size=80),
    st.lists(operations(), max_size=40),
    st.integers(0, 10),
)
def test_ledger_equals_the_row_oracle_wide(prefix, suffix, target_prefix, ahead):
    _check_program(prefix, suffix, target_prefix, ahead)


def _constant_endpoint_blocks():
    """Message blocks whose constant endpoint is the server, a device, or both."""
    kind, server = MessageKind.OTHER, SERVER_ID
    return [
        ("send_many", (constant_column(server, 3), [0, 1, server], kind, [4] * 3, [0] * 3, "a")),
        ("send_many", ([0, server, 2], constant_column(1, 3), kind, [1, 2, 3], [2] * 3, "b")),
        ("send_many", (constant_column(2, 2), constant_column(3, 2), kind, [5, 6], [1, 1], "")),
        ("drop_many", (constant_column(2, 2), constant_column(server, 2), kind, [5, 6], [1, 2])),
    ]


@settings(**TIER1)
@given(programs)
@example(_constant_endpoint_blocks())
def test_reductions_over_stride_0_columns_equal_the_materialised_ones(program):
    ledger = CommunicationLedger()
    _run(program, ledger)
    # A deep copy materialises every column: its reductions stream them all.
    dense = copy.deepcopy(ledger)
    assert all(column.strides != (0,) for block in _blocks(dense) for column in block)
    for name in TABLES:
        table, materialised = getattr(ledger, name), getattr(dense, name)
        for column in table.columns:
            total, expected = table.total(column), materialised.total(column)
            assert total == expected and type(total) is type(expected), (name, column)
        assert table.label_counts() == materialised.label_counts(), name
    for num_devices in (None, NUM_DEVICES):
        assert ledger.summary(num_devices) == dense.summary(num_devices)


def test_since_without_a_mark_is_the_whole_log():
    ledger = CommunicationLedger()
    ledger.send(0, 1, MessageKind.OTHER, 3)
    ledger.next_round()
    ledger.compute_many([0, 1], [1.0, 2.0], description="epoch")
    replayed = CommunicationLedger()
    replayed.replay(ledger.since())
    assert replayed.summary(2) == ledger.summary(2)
    assert replayed.computation.rows() == ledger.computation.rows()


def test_a_write_through_a_column_raises():
    ledger = CommunicationLedger()
    sizes = np.array([3, 4])
    ledger.send_many([0, 1], [1, 0], MessageKind.OTHER, sizes, [0, 0])
    ledger.send(0, 1, MessageKind.OTHER, 5)
    for column in ledger.messages.column("size"):
        with pytest.raises(ValueError):
            column[0] = 99
    assert ledger.summary()["total_bytes"] == 12.0


def test_a_write_through_a_since_delta_raises_and_leaves_the_log_alone():
    ledger = CommunicationLedger()
    ledger.send_many([0, 1], [1, 0], MessageKind.OTHER, [3, 4], [0, 0])
    ledger.next_round()
    ledger.send(1, 0, MessageKind.OTHER, 5)
    records = ledger.message_records()
    _, blocks = ledger.since().tables[0]
    for column in (column for block in blocks for column in block):
        with pytest.raises(ValueError):
            column[...] = 7
    assert ledger.message_records() == records


def _traced_growth(action) -> int:
    """Bytes still allocated after ``action()`` that were not before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_charging_a_million_comparisons_costs_bytes_per_block_not_per_row():
    cost = comparison_cost(24)
    charge_comparison_ledger(CommunicationLedger(), 4, cost, 0, 1)  # first-call allocations
    ledger = CommunicationLedger()
    grown = _traced_growth(lambda: charge_comparison_ledger(ledger, 1_000_000, cost, 0, 1))
    assert grown < 64 * 1024
    np.testing.assert_array_equal(ledger.per_device_message_counts(2), [1_000_000, 1_000_000])
    assert ledger.summary()["total_bytes"] == 2_000_000 * (cost.bits // 8)


def test_flushing_secure_alg3_calls_costs_one_arange_plus_bytes_per_call():
    n, calls = 2000, 40
    ring = np.arange(n)
    graph = Graph(n, np.stack([ring, (ring + 1) % n], axis=1), np.zeros((n, 1)))
    environment = FederatedEnvironment.from_graph(graph, seed=0)
    # Device i covers edge (i, i + 1); device 0 also covers (n - 1, 0), so
    # it is the one most-loaded device and every call has one winner.
    selected = {device: [device + 1] for device in range(n - 2)}
    selected.update({0: [1, n - 1], n - 2: [n - 1], n - 1: []})
    kernel = _IncrementalBalancingKernel(environment, Assignment.from_lists(selected))
    comparator = SecureComparator(bit_width=24)
    for round_index in range(calls):
        assert kernel.find_max_workload_device_secure(comparator, round_index) == 0
    grown = _traced_growth(kernel.flush_transcript)
    assert grown <= 8 * n + 2048 * calls
    counts = environment.ledger.messages.label_counts()
    assert counts[(MessageKind.SERVER_COORDINATION.value, "candidate-announcement")] == calls * n
