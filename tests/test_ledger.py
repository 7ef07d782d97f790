"""The columnar ``CommunicationLedger`` against a per-row list oracle.

Random programs mix every recording call — single rows, bulk blocks (empty
ones and ragged per-row rounds included), drops, transport frames, compute
and round advances — on a ledger and on :class:`helpers.oracles.LedgerOracle`
and then compare every query.  The same programs pin the engine's capture
path (``mark`` → ``since`` → pickle → ``replay`` into a ledger some rounds
ahead) and that a ``deepcopy`` shares nothing with its original.

Costs are multiples of 1/4, so every summation order gives the same float
and the comparisons stay exact.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from helpers.oracles import LedgerOracle
from repro.federation import SERVER_ID, CommunicationLedger, MessageKind

NUM_DEVICES = 4
TABLES = ("messages", "dropped", "frames", "computation")
TIER1 = dict(max_examples=50, deadline=2000)
WIDE = dict(max_examples=1000, deadline=None)

ids = st.integers(SERVER_ID, NUM_DEVICES + 1)  # the server and out-of-range ids too
kinds = st.sampled_from(list(MessageKind))
descriptions = st.sampled_from(["", "a", "b"])
sizes = st.integers(0, 100)
costs = st.integers(0, 400).map(lambda quarter: quarter / 4)


def _columns(draw, *elements):
    """Parallel lists, one per element strategy, of one drawn length (maybe 0)."""
    length = draw(st.integers(0, 6))
    return [draw(st.lists(element, min_size=length, max_size=length)) for element in elements]


@st.composite
def message_blocks(draw):
    """``send_many`` / ``drop_many`` arguments, per-row rounds ragged."""
    senders, recipients, sized, rounds = _columns(draw, ids, ids, sizes, st.integers(0, 8))
    return senders, recipients, draw(kinds), sized, rounds, draw(descriptions)


@st.composite
def compute_blocks(draw):
    devices, charged = _columns(draw, ids, costs)
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


def _check_program(prefix, suffix, target_prefix, ahead):
    ledger, oracle = CommunicationLedger(), LedgerOracle()
    _run(prefix, ledger, oracle)
    mark = ledger.mark()
    sizes_at_mark = {name: len(getattr(oracle, name)) for name in TABLES}
    round_at_mark = oracle.current_round
    twin = copy.deepcopy(ledger)
    twin_oracle = copy.deepcopy(oracle)
    _run(suffix, ledger, oracle)
    _assert_matches(ledger, oracle)

    # The copy saw none of the suffix; recording on it leaves the original alone.
    _assert_matches(twin, twin_oracle)
    twin.send(0, 1, MessageKind.OTHER, 5, description="twin")
    twin.compute(0, 1.0)
    _assert_matches(ledger, oracle)

    # since(mark) survives pickling and replays `ahead` rounds later into a
    # ledger with rows (and labels) of its own.
    delta = pickle.loads(pickle.dumps(ledger.since(mark)))
    target, target_oracle = CommunicationLedger(), LedgerOracle()
    _run(target_prefix, target, target_oracle)
    while target.current_round < round_at_mark + ahead:
        target.next_round()
        target_oracle.next_round()
    offset = target.current_round - round_at_mark
    target.replay(delta)
    for name, start in sizes_at_mark.items():
        getattr(target_oracle, name).extend(
            LedgerOracle.shifted(getattr(oracle, name)[start:], offset)
        )
    target_oracle.current_round += oracle.current_round - round_at_mark
    _assert_matches(target, target_oracle)


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


def test_since_without_a_mark_is_the_whole_log():
    ledger = CommunicationLedger()
    ledger.send(0, 1, MessageKind.OTHER, 3)
    ledger.next_round()
    ledger.compute_many([0, 1], [1.0, 2.0], description="epoch")
    replayed = CommunicationLedger()
    replayed.replay(ledger.since())
    assert replayed.summary(2) == ledger.summary(2)
    assert replayed.computation.rows() == ledger.computation.rows()
