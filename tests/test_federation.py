"""Tests for the federated runtime: server, ledger, environment."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.federation import (
    SERVER_ID,
    CommunicationLedger,
    FederatedEnvironment,
    MessageKind,
    Server,
)
from repro.graph import Graph, generate_star, partition_node_level

from helpers.oracles import (
    assignment_from_lists,
    edge_coverage_holds,
    exchange,
    full_assignment,
    installed_selection,
    neighbors_of,
)
from helpers.rng_contract import assert_stream_contract
from helpers.tree_cases import csr_from_lists


class TestMessagesAndLedger:
    def test_message_validation(self):
        with pytest.raises(ValueError, match="size must not be below 0"):
            CommunicationLedger().send(0, 1, MessageKind.OTHER, -1)

    def test_is_device_to_device(self):
        ledger = CommunicationLedger()
        ledger.send(0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        ledger.send(0, SERVER_ID, MessageKind.SERVER_COORDINATION, 10)
        ledger.send_many([SERVER_ID], [2], MessageKind.MODEL_SYNC, [4], [0])
        assert ledger.summary()["device_to_device_messages"] == 1

    def test_ledger_counts(self):
        ledger = CommunicationLedger()
        ledger.send(0, 1, MessageKind.FEATURE_EXCHANGE, 100)
        ledger.send(1, SERVER_ID, MessageKind.SERVER_COORDINATION, 10)
        ledger.compute(0, 2.5)
        summary = ledger.summary()
        assert summary["total_messages"] == 2
        assert summary["messages_feature_exchange"] == 1
        assert summary["total_bytes"] == 110
        assert summary["device_to_device_messages"] == 1
        assert summary["total_compute"] == 2.5

    def test_per_device_counters(self):
        ledger = CommunicationLedger()
        ledger.send(0, 1, MessageKind.EMBEDDING_EXCHANGE, 8)
        ledger.send(0, 2, MessageKind.EMBEDDING_EXCHANGE, 8)
        ledger.send(2, 0, MessageKind.EMBEDDING_EXCHANGE, 8)
        counts = ledger.per_device_message_counts(3)
        np.testing.assert_array_equal(counts, [2, 0, 1])
        ledger.compute(1, 4.0)
        np.testing.assert_allclose(ledger.per_device_compute(3), [0, 4.0, 0])

    def test_rounds_and_reset(self):
        ledger = CommunicationLedger()
        assert ledger.next_round() == 1
        ledger.send(0, 1, MessageKind.OTHER, 1)
        ledger.reset()
        assert ledger.summary()["total_messages"] == 0
        assert ledger.message_records() == []
        assert ledger.current_round == 0

    def test_summary_contains_kind_breakdown(self):
        ledger = CommunicationLedger()
        ledger.send(0, 1, MessageKind.FEATURE_EXCHANGE, 5)
        summary = ledger.summary(num_devices=2)
        assert summary["messages_feature_exchange"] == 1
        assert "avg_messages_per_device" in summary

    def test_compute_event_validation(self):
        ledger = CommunicationLedger()
        with pytest.raises(ValueError):
            ledger.compute(0, -1.0)

    @pytest.mark.parametrize(
        "scalar, bulk, complaint",
        [
            (
                lambda ledger: ledger.send(0, 1, MessageKind.OTHER, -5),
                lambda ledger: ledger.send_many([0], [1], MessageKind.OTHER, [-5], [0]),
                "size must not be below 0",
            ),
            (
                lambda ledger: ledger.drop(0, 1, MessageKind.OTHER, -5),
                lambda ledger: ledger.drop_many([0], [1], MessageKind.OTHER, [-5], [0]),
                "size must not be below 0",
            ),
            (
                lambda ledger: ledger.compute(0, -2.0),
                lambda ledger: ledger.compute_many([0], [-2.0]),
                "cost must not be below 0",
            ),
            (
                lambda ledger: ledger.record_transport_frame(0, 1, "CONTROL", -1, 0),
                lambda ledger: ledger.frames.extend(("CONTROL", ""), [0], [0], [1], [-1], [0]),
                "payload must not be below 0",
            ),
            (
                lambda ledger: ledger.record_transport_frame(0, 1, "CONTROL", 10, 9),
                lambda ledger: ledger.frames.extend(("CONTROL", ""), [0], [0], [1], [10], [9]),
                "wire must not be below payload",
            ),
            (
                None,
                lambda ledger: ledger.send_many([0, 1], [1], MessageKind.OTHER, [1], [0]),
                "1-D and of one length",
            ),
            (
                None,
                lambda ledger: ledger.compute_many([[0]], [[1.0]]),
                "1-D and of one length",
            ),
            (
                None,
                lambda ledger: ledger.send_many(0, 1, MessageKind.OTHER, 1, 0),
                "1-D and of one length",
            ),
        ],
        ids=["send", "drop", "compute", "payload", "wire", "ragged", "2-d", "0-d"],
    )
    def test_scalar_and_bulk_rows_share_one_validation(self, scalar, bulk, complaint):
        ledger = CommunicationLedger()
        ledger.send(0, 1, MessageKind.OTHER, 3)
        before = (ledger.summary(), ledger.message_records())
        for record in (scalar, bulk):
            if record is not None:
                with pytest.raises(ValueError, match=complaint):
                    record(ledger)
        # A rejected row leaves nothing behind.
        assert (ledger.summary(), ledger.message_records()) == before

    def test_numpy_scalars_never_reach_the_transcript(self):
        from repro.maintenance.tree import _transcript_digest

        transcripts = []
        for sender in (np.int64(3), 3):
            ledger = CommunicationLedger()
            ledger.send(sender, np.int32(1), MessageKind.OTHER, np.int64(7))
            ledger.send(sender, 2, MessageKind.OTHER, 1, description="x")
            transcripts.append(ledger.message_records())
        bulk = CommunicationLedger()
        bulk.send_many(np.array([3]), [1], MessageKind.OTHER, [7], [0])
        bulk.send_many([3.0], np.array([2], dtype=np.int32), MessageKind.OTHER, [1], [0], "x")
        transcripts.append(bulk.message_records())
        bulk.send_many([], [], MessageKind.OTHER, [], [], description="y")
        transcripts.append(bulk.message_records())
        assert transcripts[0] == [(0, 3, 1, "other", 7, ""), (0, 3, 2, "other", 1, "x")]
        assert all(records == transcripts[0] for records in transcripts)
        assert all(type(value) in (int, str) for record in transcripts[0] for value in record)
        assert len({_transcript_digest(records) for records in transcripts}) == 1

    @pytest.mark.parametrize(
        "record",
        [
            lambda ledger: ledger.send(1.7, 2, MessageKind.OTHER, 8),
            lambda ledger: ledger.send(1, np.float64(2.0), MessageKind.OTHER, 8),
            lambda ledger: ledger.send(1, 2, MessageKind.OTHER, 8.9),
            lambda ledger: ledger.drop(1.7, 2, MessageKind.OTHER, 8),
            lambda ledger: ledger.drop(1, 2, MessageKind.OTHER, 8.9),
            lambda ledger: ledger.record_transport_frame(0.5, 1, "CONTROL", 10, 20),
            lambda ledger: ledger.record_transport_frame(0, 1, "CONTROL", 10.5, 20),
            lambda ledger: ledger.record_transport_frame(0, 1, "CONTROL", 10, 20.5),
            lambda ledger: ledger.compute(0.5, 1.0),
        ],
        ids=[
            "send-sender", "send-recipient", "send-size", "drop-sender", "drop-size",
            "frame-sender", "frame-payload", "frame-wire", "compute-device",
        ],
    )
    def test_a_float_id_or_size_is_a_type_error_that_leaves_no_row(self, record):
        """Integer columns hold integers: a float is refused, never truncated."""
        ledger = CommunicationLedger()
        ledger.send(0, 1, MessageKind.OTHER, 3)
        ledger.record_transport_frame(0, 1, "CONTROL", 1, 2)
        ledger.compute(0, 1.5)
        tables = ("messages", "dropped", "frames", "computation")

        def contents():
            return ledger.summary(), [getattr(ledger, name).rows() for name in tables]

        before = contents()
        with pytest.raises(TypeError):
            record(ledger)
        assert contents() == before
        # The table still takes rows after the refused one.
        ledger.send(2, 3, MessageKind.OTHER, 4)
        assert ledger.message_records()[-1] == (0, 2, 3, "other", 4, "")

    def test_compute_cost_stays_float(self):
        ledger = CommunicationLedger()
        ledger.compute(0, 2)
        ledger.compute(np.int64(1), np.float32(0.25))
        assert ledger.computation.rows() == [(0, 0, 2.0, ""), (0, 1, 0.25, "")]
        np.testing.assert_array_equal(ledger.per_device_compute(2), [2.0, 0.25])


class TestServer:
    @pytest.mark.parametrize("winners", [[5], [2, 7], [9, 1, 4, 4, 8]])
    def test_pick_maximum_consumes_the_stream_as_choice_does(self, winners):
        # The Alg. 3 oracle announces per device on the ledger itself and then
        # calls ``pick_maximum``; what keeps production == oracle is that the
        # tie-break is ``rng.choice(winners)`` — same value, same stream, and
        # no draw at all for a single winner.
        server = Server(rng=np.random.default_rng(0))
        expected = []
        chosen = assert_stream_contract(
            lambda _rng: server.pick_maximum(winners),
            server.rng,
            lambda twin: expected.append(winners[0] if len(winners) == 1 else twin.choice(winners)),
        )
        assert chosen == int(expected[0])

    def test_pick_maximum_needs_a_winner(self):
        with pytest.raises(ValueError, match="no device reported"):
            Server().pick_maximum([])


class TestFederatedEnvironment:
    def test_from_graph_holds_the_graphs_csr_and_features(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        assert environment.num_devices == small_graph.num_nodes
        np.testing.assert_array_equal(np.diff(environment.indptr), small_graph.degrees())
        np.testing.assert_array_equal(neighbors_of(environment, 0), small_graph.neighbors(0))
        np.testing.assert_array_equal(environment.features, small_graph.features)
        # Read-only arrays shared with the graph, not per-device copies.
        for array, source in zip(
            (environment.indptr, environment.indices, environment.features),
            (*small_graph.csr, small_graph.features),
        ):
            assert np.shares_memory(array, source)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_workload_tracking(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        assert environment.workload_array().tolist() == [0] * small_graph.num_nodes
        kept = np.zeros(environment.indices.shape, dtype=bool)
        kept[environment.indptr[0] : environment.indptr[1]] = True
        environment.apply_assignment(kept)
        assert environment.workload_array().max() == small_graph.degrees()[0]
        assert environment.workload_array()[0] == small_graph.degrees()[0]

    def test_exchange_validates_endpoints(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        exchange(environment, 0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        with pytest.raises(KeyError):
            exchange(environment, 0, 10_000, MessageKind.FEATURE_EXCHANGE, 10)
        # The server is no device: an exchange endpoint is one.
        with pytest.raises(KeyError, match=f"unknown device {SERVER_ID}"):
            exchange(environment, SERVER_ID, 1, MessageKind.FEATURE_EXCHANGE, 10)
        with pytest.raises(KeyError, match=f"unknown device {SERVER_ID}"):
            environment.exchange_many(
                np.array([0, 1]), np.array([1, SERVER_ID]), MessageKind.FEATURE_EXCHANGE, 10
            )
        assert environment.ledger.summary()["total_messages"] == 1

    def test_assignment_roundtrip_and_coverage(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        full = full_assignment(environment)
        environment.apply_assignment(full.kept)
        assert edge_coverage_holds(environment)
        assert installed_selection(environment) == full.as_lists()
        # The installed selection is a read-only copy, not the caller's mask.
        assert not np.shares_memory(environment.selection, full.kept)
        with pytest.raises(ValueError, match="read-only"):
            environment.selection[0] = False
        # Dropping an edge from both sides breaks coverage.
        u, v = int(small_graph.edges[0, 0]), int(small_graph.edges[0, 1])
        broken = {k: [n for n in vs if not (k == u and n == v) and not (k == v and n == u)]
                  for k, vs in full.as_lists().items()}
        environment.apply_assignment(assignment_from_lists(environment, broken).kept)
        assert not edge_coverage_holds(environment)

    def test_apply_assignment_takes_one_bool_per_csr_position(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        kept = full_assignment(environment).kept
        environment.apply_assignment(kept)
        selection = environment.selection
        for mask, error, message in [
            (kept.astype(np.int64), TypeError, "boolean mask, not int64"),
            (kept.astype(np.float64), TypeError, "boolean mask, not float64"),
            (kept[1:], ValueError, "one entry per CSR position"),
            (kept.reshape(1, -1), ValueError, "one entry per CSR position"),
            (list(kept[:3]), ValueError, "one entry per CSR position"),
        ]:
            with pytest.raises(error, match=message):
                environment.apply_assignment(mask)
            # A rejected mask installs nothing.
            assert environment.selection is selection

    def test_directed_edges_are_the_csr(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        sources, targets = environment.directed_edges()
        assert sources.shape == (2 * small_graph.num_edges,)
        np.testing.assert_array_equal(np.bincount(sources), small_graph.degrees())
        assert targets.tolist() == environment.indices.tolist()
        assert environment.adjacency_csr()[1] is environment.indices

    def test_summary_keys(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        summary = environment.summary()
        assert {"num_devices", "max_workload", "total_messages"} <= set(summary)


def _environment(indptr, indices, features=None):
    n = max(len(indptr) - 1, 0)
    features = np.zeros((n, 2)) if features is None else features
    return FederatedEnvironment.from_partition((indptr, indices, features), seed=0)


class TestMalformedCSR:
    """A row index is a device id, so the CSR is all there is to validate:
    a malformed one is a ``ValueError`` naming the first offender."""

    @pytest.mark.parametrize(
        "indptr, indices, features, complaint",
        [
            ([], [], np.zeros((0, 2)), "indptr with n \\+ 1 entries"),
            ([[0, 1]], [0], np.zeros((1, 2)), "indptr with n \\+ 1 entries"),
            ([1, 2], [0], np.zeros((1, 2)), "indptr must start at 0, not 1"),
            ([0, 2, 1, 3], [1, 2, 0], np.zeros((3, 2)), "indptr decreases at device 1"),
            ([0, 1, 2], [1, 0, 0], np.zeros((2, 2)), "indptr ends at 2, but indices holds 3 ids"),
            ([0, 2, 3], [1, 3, 0], None, "device 0 lists neighbour 3, which is not a device"),
            ([0, 1, 3], [1, -2, 0], None, "device 1 lists neighbour -2, which is not a device"),
            ([0, 1, 3], [1, 0, 1], None, "device 1 lists neighbour 1, which is itself"),
            ([0, 2, 3, 4], [2, 1, 0, 0], None, "device 0 lists neighbour 1, out of ascending order"),
            ([0, 1, 3, 4], [1, 2, 2, 1], None, "device 1 lists neighbour 2, out of ascending order"),
            ([0, 1, 2], [1, 0], np.zeros((3, 2)), "one row per device: \\(3, 2\\) for 2"),
            ([0, 1, 2], [1, 0], np.zeros(2), "one row per device: \\(2,\\) for 2"),
        ],
        ids=[
            "no-indptr", "2-d-indptr", "indptr-offset", "indptr-decreases", "indptr-overruns",
            "dangling", "negative-neighbour", "self", "descending", "duplicate",
            "feature-rows", "feature-vector",
        ],
    )
    def test_malformed_partitions_are_rejected(self, indptr, indices, features, complaint):
        with pytest.raises(ValueError, match=complaint):
            _environment(indptr, indices, features)
        with pytest.raises(ValueError, match=complaint):
            FederatedEnvironment(
                indptr=np.asarray(indptr, dtype=np.int64),
                indices=np.asarray(indices, dtype=np.int64),
                features=np.zeros((max(len(indptr) - 1, 0), 2)) if features is None else features,
                server=Server(),
                ledger=CommunicationLedger(),
                rng=np.random.default_rng(0),
            )

    def test_node_level_partitions_pass(self, small_graph):
        environment = FederatedEnvironment.from_partition(partition_node_level(small_graph), seed=0)
        assert environment.num_devices == small_graph.num_nodes
        empty = _environment([0], [], np.zeros((0, 3)))
        assert empty.num_devices == 0 and empty.workload_array().tolist() == []


class TestDeviceIdTypes:
    """A device id is an integer: a float or bool id used to be truncated
    (``0.5`` read as device 0, ``True`` as device 1); it is a ``TypeError``.
    An unknown integer id stays a ``KeyError``."""

    @pytest.fixture()
    def environment(self):
        return _environment(*csr_from_lists([[1, 2], [0], [0]]))

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda env: env.exchange_many(
                np.array([0.5]), np.array([1.2]), MessageKind.OTHER, 1), TypeError),
            (lambda env: env.exchange_many(
                np.array([True]), np.array([0]), MessageKind.OTHER, 1), TypeError),
            (lambda env: env.set_availability(np.array([0.5, 0.0, 2.0])), TypeError),
            (lambda env: env.set_availability(np.array([1, 0, 1])), TypeError),
            (lambda env: env.exchange_many(
                np.array([0]), np.array([3]), MessageKind.OTHER, 1), KeyError),
        ],
        ids=[
            "float-exchange", "bool-exchange", "float-mask", "integer-mask", "unknown-exchange",
        ],
    )
    def test_non_integer_ids_are_type_errors(self, environment, call, error):
        environment.apply_assignment(assignment_from_lists(environment, {0: [1]}).kept)
        selection = environment.selection
        with pytest.raises(error):
            call(environment)
        assert environment.selection is selection
        assert environment.ledger.message_records() == []
        assert environment.summary()["max_workload"] == 1


#: Generated federations.  Graph cases: isolated vertices, stars, one
#: device, the empty graph.  Asymmetric cases: each device lists its own
#: neighbours, so ``u`` may list ``v`` while ``v`` lists nothing (the
#: partitions the balancing kernel is pinned on, see test_mcmc_incremental).
TIER1 = dict(max_examples=30, deadline=1000)
WIDE = dict(max_examples=400, deadline=None)


@st.composite
def federations(draw, max_devices: int):
    """``(graph or None, neighbour lists, selection)``."""
    n = draw(st.integers(0, max_devices))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
        lambda pair: pair[0] != pair[1]
    )
    edges = draw(st.lists(pairs, max_size=3 * n if n > 1 else 0))
    graph = None
    if draw(st.booleans()):
        graph = Graph(num_nodes=n, edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                      features=np.arange(2.0 * n).reshape(n, 2))
        lists = [graph.neighbors(v).tolist() for v in range(n)]
    else:
        lists = [sorted({v for u, v in edges if u == device}) for device in range(n)]
    keep = st.lists(st.booleans(), min_size=len(sum(lists, [])), max_size=len(sum(lists, [])))
    kept = iter(draw(keep))
    selection = {device: [v for v in row if next(kept)] for device, row in enumerate(lists)}
    return graph, lists, selection


EXAMPLES = [
    # isolated vertices around one edge, a star, one device, the empty graph
    (Graph(num_nodes=4, edges=np.array([[1, 2]]), features=np.zeros((4, 2))),
     [[], [2], [1], []], {0: [], 1: [2], 2: [], 3: []}),
    (generate_star(num_leaves=4, seed=0), None, None),
    (Graph(num_nodes=1, edges=np.zeros((0, 2)), features=np.zeros((1, 2))), [[]], {0: []}),
    (Graph(num_nodes=0, edges=np.zeros((0, 2)), features=np.zeros((0, 2))), [], {}),
    # device 1 lists no neighbour although device 0 lists it; 3 is isolated
    (None, [[1, 2], [], [0], []], {0: [1], 1: [], 2: [0], 3: []}),
]


def _check_federation(case):
    graph, lists, selection = case
    if lists is None:  # a whole graph, everything selected
        lists = [graph.neighbors(v).tolist() for v in range(graph.num_nodes)]
        selection = dict(enumerate(lists))
    n = len(lists)
    environment = (
        FederatedEnvironment.from_graph(graph, seed=0)
        if graph is not None
        else _environment(*csr_from_lists(lists))
    )
    assert environment.num_devices == n
    for device in range(n):
        assert neighbors_of(environment, device) == lists[device]
        if graph is not None:
            np.testing.assert_array_equal(neighbors_of(environment, device), graph.neighbors(device))

    assignment = assignment_from_lists(environment, selection)
    environment.apply_assignment(assignment.kept)
    installed = {device: sorted(selection.get(device, ())) for device in range(n)}
    assert installed_selection(environment) == installed == assignment.as_lists()
    np.testing.assert_array_equal(environment.workload_array(), [len(installed[d]) for d in range(n)])
    kept = {(u, v) for u, row in installed.items() for v in row}
    covered = all((u, v) in kept or (v, u) in kept for u in range(n) for v in lists[u])
    assert edge_coverage_holds(environment) is covered
    if graph is not None:
        assert covered is assignment.covers_all_edges(graph)


def _with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


class TestGeneratedFederations:
    @settings(**TIER1)
    @given(federations(max_devices=8))
    @_with_examples
    def test_rows_and_selection_round_trip(self, case):
        _check_federation(case)

    @pytest.mark.slow
    @settings(**WIDE)
    @given(federations(max_devices=40))
    @_with_examples
    def test_rows_and_selection_round_trip_wide(self, case):
        _check_federation(case)
