"""Tests for the federated runtime: devices, server, ledger, environment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.federation import (
    SERVER_ID,
    CommunicationLedger,
    Device,
    FederatedEnvironment,
    MessageKind,
    Server,
    build_devices,
)
from repro.graph import partition_node_level
from repro.graph.ego import EgoNetwork

from helpers.oracles import edge_coverage_holds
from helpers.rng_contract import assert_stream_contract


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


class TestDevice:
    def test_build_devices(self, small_graph):
        partition = partition_node_level(small_graph)
        devices = build_devices(partition)
        assert len(devices) == small_graph.num_nodes
        assert devices[0].device_id == 0
        assert devices[0].degree == small_graph.degrees()[0]

    def test_neighbor_selection_rules(self, small_graph):
        partition = partition_node_level(small_graph)
        device = Device(ego=partition[0])
        device.select_all_neighbors()
        assert device.workload == device.degree
        first_neighbor = int(partition[0].neighbors[0])
        device.select_neighbors([first_neighbor])
        assert device.selected_neighbors == [first_neighbor]
        with pytest.raises(ValueError):
            device.select_neighbors([10_000])


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
    def test_from_graph_builds_one_device_per_vertex(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        assert environment.num_devices == small_graph.num_nodes
        assert environment.device_ids() == list(range(small_graph.num_nodes))
        assert environment.devices[0].degree == small_graph.degrees()[0]

    def test_workload_tracking(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        assert environment.max_workload() == 0
        environment.devices[0].select_all_neighbors()
        assert environment.max_workload() == small_graph.degrees()[0]
        assert environment.workload_array()[0] == small_graph.degrees()[0]

    def test_exchange_validates_endpoints(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        environment.exchange(0, 1, MessageKind.FEATURE_EXCHANGE, 10)
        with pytest.raises(KeyError):
            environment.exchange(0, 10_000, MessageKind.FEATURE_EXCHANGE, 10)
        # The server is no device: an exchange endpoint is one.
        with pytest.raises(KeyError, match=f"unknown device {SERVER_ID}"):
            environment.exchange(SERVER_ID, 1, MessageKind.FEATURE_EXCHANGE, 10)
        with pytest.raises(KeyError, match=f"unknown device {SERVER_ID}"):
            environment.exchange_many(
                np.array([0, 1]), np.array([1, SERVER_ID]), MessageKind.FEATURE_EXCHANGE, 10
            )
        assert environment.ledger.summary()["total_messages"] == 1
        with pytest.raises(KeyError):
            environment.charge_compute(10_000, 1.0)

    def test_assignment_roundtrip_and_coverage(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        full = {
            device_id: [int(v) for v in device.ego.neighbors]
            for device_id, device in environment.devices.items()
        }
        environment.apply_assignment(full)
        assert edge_coverage_holds(environment)
        assert {k: d.selected_neighbors for k, d in environment.devices.items()} == {
            k: sorted(v) for k, v in full.items()
        }
        # Dropping an edge from both sides breaks coverage.
        u, v = int(small_graph.edges[0, 0]), int(small_graph.edges[0, 1])
        broken = {k: [n for n in vs if not (k == u and n == v) and not (k == v and n == u)]
                  for k, vs in full.items()}
        environment.apply_assignment(broken)
        assert not edge_coverage_holds(environment)

    def test_apply_assignment_rejects_what_select_neighbors_rejects(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        n = environment.num_devices
        neighbor = int(environment.devices[0].ego.neighbors[0])
        stranger = next(
            v for v in range(1, n) if not environment.devices[0].ego.has_neighbor(v)
        )
        installed = {0: [neighbor], 1: []}
        environment.apply_assignment(installed)
        edges = environment.directed_edges()
        for selection, error, message in [
            ({1: [], 0: [neighbor, stranger]}, ValueError,
             f"device 0 cannot select non-neighbour {stranger}"),
            ({0: [neighbor, n + 3]}, ValueError, f"device 0 cannot select non-neighbour {n + 3}"),
            ({0: [-1]}, ValueError, "device 0 cannot select non-neighbour -1"),
            ({0: [0]}, ValueError, "device 0 cannot select non-neighbour 0"),
            # The first offender in the mapping's order is the one named.
            ({1: [1], 0: [stranger]}, ValueError, "device 1 cannot select non-neighbour 1"),
            ({0: [neighbor], n: []}, KeyError, f"unknown device {n}"),
            ({-1: []}, KeyError, "unknown device -1"),
        ]:
            with pytest.raises(error, match=message):
                environment.apply_assignment(selection)
            # The single-device door gives the same verdict on the same pair.
            if error is ValueError:
                device_id, chosen = next((k, v) for k, v in selection.items() if v)
                with pytest.raises(ValueError, match=message):
                    Device(ego=environment.devices[device_id].ego).select_neighbors(chosen)
            # A rejected assignment installs nothing, not even its valid part.
            assert environment.devices[0].selected_neighbors == [neighbor]
            assert environment.devices[1].selected_neighbors == []
            assert environment.directed_edges() is edges

    def test_apply_assignment_sorts_and_collapses_duplicates(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        neighbors = environment.devices[0].ego.neighbors.tolist()
        assert len(neighbors) >= 2
        environment.apply_assignment({1: environment.devices[1].ego.neighbors.tolist()})
        kept = list(environment.devices[1].selected_neighbors)
        # Lists, sets, arrays and one-shot iterables are all accepted.
        for chosen in (
            neighbors[::-1] + neighbors,
            set(neighbors),
            np.asarray(neighbors[::-1]),
            iter(neighbors + neighbors[:1]),
        ):
            environment.apply_assignment({0: chosen})
            assert environment.devices[0].selected_neighbors == neighbors
            assert all(type(v) is int for v in environment.devices[0].selected_neighbors)
            # Devices the mapping does not name keep their selection.
            assert environment.devices[1].selected_neighbors == kept
        environment.apply_assignment({0: []})
        assert environment.devices[0].selected_neighbors == []
        environment.apply_assignment({})
        assert environment.devices[1].selected_neighbors == kept

    def test_directed_edges_cached_and_complete(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        edges = environment.directed_edges()
        assert edges.shape == (2, 2 * small_graph.num_edges)
        assert environment.directed_edges() is edges

    def test_summary_keys(self, small_graph):
        environment = FederatedEnvironment.from_graph(small_graph, seed=0)
        summary = environment.summary()
        assert {"num_devices", "max_workload", "total_messages"} <= set(summary)


def _partition(egos):
    """``key -> EgoNetwork`` from ``(key, centre, neighbours)`` triples."""
    rng = np.random.default_rng(0)
    return {
        key: EgoNetwork(center=center, neighbors=neighbors, feature=rng.random(4))
        for key, center, neighbors in egos
    }


class TestDeviceIdBoundary:
    """Device ids are ``0..n-1`` by type: any other partition is a
    ``ValueError`` at construction, so no kernel ever sees one."""

    @pytest.mark.parametrize(
        "egos, offender",
        [
            ([(0, 0, [2]), (2, 2, [0, 5]), (5, 5, [2])], "position 1 holds id 2"),
            ([(-1, -1, [0]), (0, 0, [-1])], "position 0 holds id -1"),
            ([(1, 1, [0]), (0, 0, [1])], "position 0 holds id 1"),
            ([(0, 0, [1]), (1, 5, [0])], "device 1 holds the ego network of vertex 5"),
            ([(0, 0, [1, 3]), (1, 1, [0])], "device 0 lists neighbour 3"),
            ([(0, 0, [1]), (1, 1, [-2, 0])], "device 1 lists neighbour -2"),
        ],
        ids=["gappy", "negative", "unordered", "mis-keyed", "dangling", "negative-neighbour"],
    )
    def test_malformed_partitions_are_rejected(self, egos, offender):
        partition = _partition(egos)
        with pytest.raises(ValueError, match=offender):
            FederatedEnvironment.from_partition(partition, seed=0)
        with pytest.raises(ValueError, match=offender):
            FederatedEnvironment(
                devices=build_devices(partition),
                server=Server(),
                ledger=CommunicationLedger(),
                rng=np.random.default_rng(0),
            )

    def test_node_level_partitions_pass(self, small_graph):
        partition = partition_node_level(small_graph)
        environment = FederatedEnvironment.from_partition(partition, seed=0)
        assert environment.device_ids() == list(range(small_graph.num_nodes))
        assert FederatedEnvironment.from_partition({}, seed=0).max_workload() == 0
