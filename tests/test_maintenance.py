"""Self-healing tree maintenance: journal, delta ops, replay, kill-replay.

The maintenance layer's acceptance contract is bit-identity: for any run —
uninterrupted, replayed from the journal, or recovered after a kill in the
middle of a journal write (``helpers.crash_points.journal_crash_point``) —
``state_digest()`` (assignment, adjacency, ledger transcript,
secure-comparison accountant, RNG bit-generator state, counters) must be
identical.  These tests pin that contract plus the structural invariants of
the delta operations.
"""

from __future__ import annotations

import multiprocessing

import pytest

from helpers.crash_points import (
    CRASH_EXIT_CODE,
    JournalCrash,
    churn_schedule,
    journal_crash_point,
    resume_schedule,
    run_schedule,
)

from repro.engine.store import ArtifactStore, DiskSpillStore
from repro.faults.config import FaultScenarioConfig
from repro.maintenance import (
    MaintainedTree,
    MaintenanceConfig,
    MutationJournal,
    StalenessMonitor,
    read_records,
)
from repro.maintenance.churn import _constructed_tree
from repro.maintenance.journal import MAGIC, _frame


def _assert_edges_covered(tree: MaintainedTree) -> None:
    """Adjacency is symmetric and every edge is covered by at least one side.

    (Construction uses vertex-cover semantics, so both endpoints may cover
    the same edge; the maintenance invariant is that no edge goes uncovered.)
    """
    for u, adjacent in tree.neighbors.items():
        for v in adjacent:
            assert u in tree.neighbors[v]
            covered = int(v in tree.assignment.selected.get(u, set())) + int(
                u in tree.assignment.selected.get(v, set())
            )
            assert covered >= 1, f"edge ({u}, {v}) is uncovered"


class _LookupOnlyDict(dict):
    """Adjacency that may be looked up by device, never enumerated."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("a mutation enumerated every present device")

    __iter__ = keys = items = values = _refuse


def _tree(num_nodes=30, mcmc=15, journal=None, snapshots=None, seed=0):
    lists, ego, _ = _constructed_tree("facebook", num_nodes, 0, mcmc)
    tree = MaintainedTree.from_construction(
        lists,
        ego,
        MaintenanceConfig(seed=seed),
        journal=journal,
        snapshots=snapshots,
    )
    return tree, ego


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.lmj"
        with MutationJournal.create(path) as journal:
            journal.append({"seq": 1, "op": "remove", "device": 3})
            journal.append({"seq": 2, "op": "insert", "device": 3, "neighbors": [1]})
        records, valid = read_records(path)
        assert records == [
            {"seq": 1, "op": "remove", "device": 3},
            {"seq": 2, "op": "insert", "device": 3, "neighbors": [1]},
        ]
        assert valid == path.stat().st_size

    def test_recovery_from_a_cut_at_every_byte_offset(self, tmp_path):
        """A journal cut anywhere recovers to its longest prefix of whole
        records, truncated on disk so that the next append reads back."""
        path = tmp_path / "j.lmj"
        records = [
            {"seq": 1, "op": "remove", "device": 3},
            {"seq": 2, "op": "insert", "device": 3, "neighbors": [1, 2]},
            {"seq": 3, "op": "rebalance", "region": [1, 2, 3], "iterations": 4},
        ]
        ends = [len(MAGIC)]
        with MutationJournal.create(path) as journal:
            for record in records:
                journal.append(record)
                ends.append(path.stat().st_size)
        data = path.read_bytes()
        follow_up = {"seq": 9, "op": "remove", "device": 7}
        for cut in range(len(MAGIC), len(data) + 1):
            path.write_bytes(data[:cut])
            whole = sum(end <= cut for end in ends) - 1
            journal, survived = MutationJournal.recover(path)
            assert survived == records[:whole], cut
            assert path.stat().st_size == ends[whole], cut
            journal.append(follow_up)
            journal.close()
            assert read_records(path) == (records[:whole] + [follow_up], path.stat().st_size)

    def test_a_cut_inside_magic_is_a_wrong_file(self, tmp_path):
        path = tmp_path / "j.lmj"
        with MutationJournal.create(path) as journal:
            journal.append({"seq": 1, "op": "remove", "device": 3})
        data = path.read_bytes()
        for cut in range(len(MAGIC)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="bad magic"):
                MutationJournal.recover(path)

    def test_torn_tail_is_truncated_on_recover_and_appends_extend(self, tmp_path):
        path = tmp_path / "j.lmj"
        journal = MutationJournal.create(path)
        journal.append({"seq": 1, "op": "remove", "device": 3})
        with journal_crash_point(2, in_process=True), pytest.raises(JournalCrash):
            journal.append({"seq": 2, "op": "remove", "device": 4})
        journal.close()

        records, valid = read_records(path)
        assert [r["seq"] for r in records] == [1]
        assert valid < path.stat().st_size  # torn bytes present on disk

        recovered, survived = MutationJournal.recover(path)
        assert [r["seq"] for r in survived] == [1]
        assert path.stat().st_size == valid  # tail gone
        recovered.append({"seq": 2, "op": "remove", "device": 4})
        recovered.close()
        records, valid = read_records(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert valid == path.stat().st_size

    def test_minimal_torn_prefix_survives_recovery(self, tmp_path):
        path = tmp_path / "j.lmj"
        journal = MutationJournal.create(path)
        journal.append({"seq": 1, "op": "remove", "device": 3})
        journal._file.write(_frame({"seq": 2, "op": "remove", "device": 4})[:1])
        journal.close()
        _, survived = MutationJournal.recover(path)
        assert [r["seq"] for r in survived] == [1]

    def test_corrupt_payload_stops_the_read(self, tmp_path):
        path = tmp_path / "j.lmj"
        journal = MutationJournal.create(path)
        journal.append({"seq": 1, "op": "remove", "device": 3})
        journal.append({"seq": 2, "op": "remove", "device": 4})
        journal.close()
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a byte inside the last frame's payload
        path.write_bytes(bytes(data))
        records, _ = read_records(path)
        assert [r["seq"] for r in records] == [1]

    def test_wrong_file_raises(self, tmp_path):
        path = tmp_path / "not-a-journal"
        path.write_bytes(b"something else entirely")
        with pytest.raises(ValueError, match="bad magic"):
            read_records(path)


class TestDeltaOperations:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            MaintenanceConfig(rebalance_iterations=-1)
        with pytest.raises(ValueError, match="non-negative"):
            MaintenanceConfig(rebuild_mcmc_iterations=-1)
        for bits in (0, 65, 99):
            with pytest.raises(ValueError, match=r"comparison_bits must be in \[1, 64\]"):
                MaintenanceConfig(comparison_bits=bits)
        MaintenanceConfig(comparison_bits=1)
        MaintenanceConfig(comparison_bits=64)

    def test_construction_covers_every_edge(self):
        tree, _ = _tree()
        _assert_edges_covered(tree)

    def test_insert_covers_new_edges_and_filters_absent_neighbors(self):
        tree, _ = _tree()
        device = max(tree.present()) + 1
        neighbors = tree.present()[:3]
        applied = tree.insert_device(device, neighbors + [10_000])
        assert applied == sorted(neighbors)  # absent peer filtered out
        assert device in tree.neighbors
        _assert_edges_covered(tree)
        assert tree.counters["joins"] == 1
        assert tree.counters["edges_added"] == len(applied)
        with pytest.raises(ValueError, match="already present"):
            tree.insert_device(device, neighbors)

    def test_remove_cleans_adjacency_and_selections(self):
        tree, _ = _tree()
        victim = tree.present()[0]
        degree = len(tree.neighbors[victim])
        tree.remove_device(victim)
        assert victim not in tree.neighbors
        assert all(victim not in adj for adj in tree.neighbors.values())
        assert all(
            victim not in sel for sel in tree.assignment.selected.values()
        )
        _assert_edges_covered(tree)
        assert tree.counters["leaves"] == 1
        assert tree.counters["edges_removed"] == degree
        with pytest.raises(ValueError, match="not present"):
            tree.remove_device(victim)

    def test_update_degree_adds_and_removes_edges(self):
        tree, _ = _tree()
        device = tree.present()[0]
        existing = sorted(tree.neighbors[device])
        others = [v for v in tree.present() if v != device and v not in existing]
        added, removed = tree.update_degree(
            device, add=others[:2], remove=existing[:1]
        )
        assert added == sorted(others[:2])
        assert removed == existing[:1]
        _assert_edges_covered(tree)
        assert tree.counters["degree_updates"] == 1

    def test_mutations_look_devices_up_and_never_enumerate_them(self, tmp_path):
        """O(requested degree) per mutation, pinned structurally: the same
        journal records come out when enumerating the adjacency raises."""
        records = {}
        for guarded in (False, True):
            journal = MutationJournal.create(tmp_path / f"guarded-{guarded}.lmj")
            tree, ego = _tree(journal=journal, snapshots=ArtifactStore())
            present = tree.present()
            victim, other = present[0], present[1]
            if guarded:
                tree.neighbors = _LookupOnlyDict(tree.neighbors)
            tree.remove_device(victim)
            tree.insert_device(victim, list(ego[victim]) + [10_000])
            tree.update_degree(
                other, add=present[5:8] + [10_001], remove=sorted(ego[other])[:1]
            )
            journal.close()
            records[guarded] = read_records(journal.path)[0][1:]  # past the genesis
        assert [record["op"] for record in records[True]] == [
            "remove", "insert", "update_degree",
        ]
        assert records[True] == records[False]

    def test_rebalance_preserves_coverage_and_never_worsens_region_much(self):
        tree, _ = _tree()
        before = tree.objective()
        stats = tree.rebalance(iterations=25)
        assert set(stats) == {"accepted", "moves", "comparisons"}
        _assert_edges_covered(tree)
        assert tree.counters["rebalances"] == 1
        # Metropolis may accept slightly worse states, but a localized pass
        # must not blow the objective up.
        assert tree.objective() <= before + 2

    def test_rebuild_restores_a_constructed_assignment(self):
        tree, ego = _tree()
        # Degrade the tree first so the rebuild has something to fix.
        for device in tree.present()[:5]:
            tree.remove_device(device)
        tree.rebuild(mcmc_iterations=30)
        _assert_edges_covered(tree)
        assert tree.counters["rebuilds"] == 1

    def test_mutations_without_journal_keep_a_chain(self):
        tree, _ = _tree()
        chain0 = tree.chain
        tree.remove_device(tree.present()[0])
        assert tree.seq == 1 and tree.chain != chain0


class TestSnapshotReplay:
    def test_replay_is_bit_identical_to_live(self, tmp_path):
        journal = MutationJournal.create(tmp_path / "j.lmj")
        snapshots = ArtifactStore()
        tree, ego = _tree(journal=journal, snapshots=snapshots)
        victims = tree.present()[:4]
        for device in victims:
            tree.remove_device(device)
        tree.rebalance(iterations=10)
        for device in victims[:2]:
            tree.insert_device(device, ego[device])
        tree.snapshot()
        tree.update_degree(tree.present()[0], add=tree.present()[3:5])
        tree.rebuild(mcmc_iterations=20)
        live = tree.state_digest()
        journal.close()

        replayed = MaintainedTree.replay(journal.path, snapshots)
        assert replayed.state_digest() == live
        assert replayed.counters == tree.counters

    def test_replay_degrades_to_earlier_snapshot_when_latest_is_gone(
        self, tmp_path
    ):
        journal = MutationJournal.create(tmp_path / "j.lmj")
        snapshots = ArtifactStore()
        tree, ego = _tree(journal=journal, snapshots=snapshots)
        tree.remove_device(tree.present()[0])
        mid_key = tree.snapshot()
        tree.remove_device(tree.present()[0])
        live = tree.state_digest()
        journal.close()

        # Dropping the mid-run snapshot forces the replay back to genesis —
        # it must reach the same end state either way.
        del snapshots._entries[mid_key]
        replayed = MaintainedTree.replay(journal.path, snapshots)
        assert replayed.state_digest() == live

    def test_replay_spans_disk_spill_snapshots(self, tmp_path):
        journal = MutationJournal.create(tmp_path / "j.lmj")
        snapshots = DiskSpillStore(tmp_path / "snap", max_bytes=1)  # all on disk
        tree, ego = _tree(journal=journal, snapshots=snapshots)
        tree.remove_device(tree.present()[0])
        tree.snapshot()
        tree.rebalance(iterations=5)
        live = tree.state_digest()
        journal.close()

        fresh = DiskSpillStore(tmp_path / "snap", max_bytes=1)
        replayed = MaintainedTree.replay(journal.path, fresh)
        assert replayed.state_digest() == live

    def test_replay_rejects_a_journal_without_genesis(self, tmp_path):
        path = tmp_path / "j.lmj"
        journal = MutationJournal.create(path)
        journal.append({"seq": 1, "op": "remove", "device": 3})
        journal.close()
        with pytest.raises(ValueError, match="genesis"):
            MaintainedTree.replay(path, ArtifactStore())


_KILL_SCENARIO = dict(
    dataset="facebook",
    num_nodes=40,
    seed=0,
    scenario=FaultScenarioConfig(join_rate=0.30, leave_rate=0.10, fault_seed=13),
    rounds=5,
    mcmc_iterations=10,
    rebalance_every=3,
)


class TestKillReplay:
    def test_a_kill_at_every_mutation_recovers_to_the_uninterrupted_run(
        self, tmp_path
    ):
        kr = _KILL_SCENARIO
        _, _, schedule = churn_schedule(**kr)
        assert len(schedule) == 32
        clean = run_schedule(tmp_path / "clean.lmj", tmp_path / "clean-snap", **kr)
        for seq in range(1, len(schedule) + 1):
            journal = tmp_path / f"torn-{seq}.lmj"
            snapshots = tmp_path / f"torn-{seq}-snap"
            with journal_crash_point(seq, in_process=True):
                with pytest.raises(JournalCrash):
                    run_schedule(journal, snapshots, **kr)

            records, valid = read_records(journal)
            assert journal.stat().st_size > valid, seq  # the torn frame
            assert [r["seq"] for r in records[1:]] == list(range(1, seq))

            recovered, resumed_at = resume_schedule(journal, snapshots, **kr)
            assert resumed_at == seq - 1
            assert recovered == clean, seq  # bit-identical state digest
            # The recovered journal on disk replays to the same state.
            store = DiskSpillStore(snapshots, max_bytes=64 * 1024 * 1024)
            assert MaintainedTree.replay(journal, store).state_digest() == clean, seq

    def test_mid_write_kill_then_recovery_matches_uninterrupted_run(
        self, tmp_path
    ):
        kr = _KILL_SCENARIO
        crash_seq = 17
        clean = run_schedule(tmp_path / "clean.lmj", tmp_path / "clean-snap", **kr)
        context = multiprocessing.get_context("fork")
        # Installed before the fork: the child inherits the patched append.
        with journal_crash_point(crash_seq):
            child = context.Process(
                target=run_schedule,
                args=(tmp_path / "torn.lmj", tmp_path / "torn-snap"),
                kwargs=kr,
            )
            child.start()
        child.join(timeout=120)
        assert child.exitcode == CRASH_EXIT_CODE

        # The journal on disk ends in a torn frame from the mid-write kill.
        records, valid = read_records(tmp_path / "torn.lmj")
        assert (tmp_path / "torn.lmj").stat().st_size > valid
        assert [r["seq"] for r in records[1:]] == list(range(1, crash_seq))

        recovered, resumed_at = resume_schedule(
            tmp_path / "torn.lmj", tmp_path / "torn-snap", **kr
        )
        assert resumed_at == crash_seq - 1
        assert recovered == clean  # bit-identical state digest

    def test_uninterrupted_schedule_is_deterministic(self, tmp_path):
        kr = _KILL_SCENARIO
        first = run_schedule(tmp_path / "a.lmj", tmp_path / "a-snap", **kr)
        second = run_schedule(tmp_path / "b.lmj", tmp_path / "b-snap", **kr)
        assert first == second


class TestStalenessMonitor:
    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            StalenessMonitor(staleness_bound=-0.1)
        with pytest.raises(ValueError):
            StalenessMonitor(staleness_bound=0.5, rebuild_bound=0.25)

    def test_fresh_tree_needs_no_action(self):
        tree, _ = _tree()
        monitor = StalenessMonitor(
            staleness_bound=5.0, rebuild_bound=10.0, reference_iterations=20
        )
        report = monitor.check(tree, round_index=0)
        assert report.action == "none"
        assert report.post_objective == report.maintained_objective
        assert monitor.summary()["rebalances"] == 0.0

    def test_imbalanced_tree_triggers_the_degradation_policy(self):
        # Pile every edge onto its smaller endpoint: a deliberately stale
        # assignment no construction would produce.
        lists, ego, _ = _constructed_tree("facebook", 30, 0, 15)
        piled = {v: [] for v in ego}
        for u, adjacent in ego.items():
            for v in adjacent:
                if u < v:
                    piled[u].append(v)
        tree = MaintainedTree.from_construction(piled, ego, MaintenanceConfig())
        monitor = StalenessMonitor(
            staleness_bound=0.0, rebuild_bound=0.0, reference_iterations=20
        )
        report = monitor.check(tree)
        assert report.staleness > 0
        assert report.action in ("rebalance", "rebuild")
        assert report.post_staleness <= report.staleness
        summary = monitor.summary()
        assert summary["checks"] == 1.0
        assert summary["rebalances"] == 1.0
        if report.action == "rebuild":
            assert tree.counters["rebuilds"] == 1

    def test_reference_objective_is_a_shadow_computation(self):
        tree, _ = _tree()
        digest = tree.state_digest()
        monitor = StalenessMonitor(reference_iterations=20)
        first = monitor.reference_objective(tree)
        second = monitor.reference_objective(tree)
        assert first == second  # chain-derived seed, no RNG consumption
        assert tree.state_digest() == digest  # tree untouched


@pytest.mark.slow
class TestChurnSoak:
    """Nightly-scale soak: heavier churn, more rounds, replay stays exact."""

    def test_long_churn_schedule_replays_bit_for_bit(self, tmp_path):
        scenario = dict(
            dataset="facebook",
            num_nodes=200,
            seed=0,
            scenario=FaultScenarioConfig(
                join_rate=0.35, leave_rate=0.20, fault_seed=29
            ),
            rounds=40,
            mcmc_iterations=25,
            rebalance_every=5,
        )
        clean = run_schedule(tmp_path / "soak.lmj", tmp_path / "soak-snap", **scenario)
        recovered, resumed_at = resume_schedule(
            tmp_path / "soak.lmj", tmp_path / "soak-snap", **scenario
        )
        assert recovered == clean
        assert resumed_at >= 0
