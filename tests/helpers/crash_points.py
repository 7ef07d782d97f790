"""Crash points the tests install, and the churn schedule they kill.

The recovery paths are proved by killing real processes, but nothing in
``src/`` knows how: each crash point here patches the one function a
process should die in and then lets unchanged production code run into it.

* :func:`party_dies_before_send` — ``PartyChannel.send`` in the two-party
  transport's party process, by swapping ``repro.crypto.transport.party_main``
  for a wrapper.
* :func:`journal_crash_point` — ``MutationJournal.append`` mid-frame: a
  strict prefix of the frame reaches the disk, then the process dies (or,
  in-process, raises :class:`JournalCrash`).

A killed process exits with :data:`CRASH_EXIT_CODE` through ``os._exit``, so
no exception handler, ``finally`` or atexit hook runs — what a SIGKILL does.

:func:`run_schedule` / :func:`resume_schedule` are the kill-replay harness:
one churn schedule through a journalled ``MaintainedTree``, and its
recovery from a torn journal.
"""

from __future__ import annotations

import functools
import os
from typing import Optional, Tuple
from unittest import mock

from repro.crypto import transport
from repro.engine.store import DiskSpillStore
from repro.faults.config import FaultScenarioConfig
from repro.faults.plan import FaultPlan
from repro.maintenance import (
    MaintainedTree,
    MaintenanceConfig,
    MutationJournal,
    apply_schedule,
    compile_churn_schedule,
)
from repro.maintenance.churn import _constructed_tree
from repro.maintenance.journal import _PREFIX, _encode, _frame

#: Exit code of every process a crash point kills.
CRASH_EXIT_CODE = 86


# --------------------------------------------------------------------------- #
# Crash points
# --------------------------------------------------------------------------- #
def party_dies_before_send(send_number: int):
    """Every party process started in the block dies before its
    ``send_number``-th frame (1 is the ``ready`` handshake)."""
    original = transport.party_main

    def party_main(channel, *args):
        sends = 0
        send = channel.send

        def counted_send(kind, *buffers, **options):
            nonlocal sends
            sends += 1
            if sends == send_number:
                os._exit(CRASH_EXIT_CODE)
            return send(kind, *buffers, **options)

        channel.send = counted_send
        original(channel, *args)

    return mock.patch.object(transport, "party_main", party_main)


class JournalCrash(RuntimeError):
    """The in-process form of a kill in the middle of a journal write."""


def journal_crash_point(seq: int, *, in_process: bool = False):
    """The first journal record carrying ``seq`` is torn, then the writer dies.

    The append writes the frame's length prefix and half its payload, flushes
    and fsyncs them, then calls ``os._exit`` — or, with ``in_process``, raises
    :class:`JournalCrash` before the mutation is applied.  Mutation ``seq``
    is journalled before any snapshot record at the same ``seq``.
    """
    original = MutationJournal.append

    def append(self, record):
        if record["seq"] != seq:
            return original(self, record)
        frame = _frame(_encode(record))
        self._file.write(frame[: _PREFIX.size + (len(frame) - _PREFIX.size) // 2])
        self._file.flush()
        os.fsync(self._file.fileno())
        if in_process:
            raise JournalCrash(f"killed while journalling seq {seq}")
        os._exit(CRASH_EXIT_CODE)

    return mock.patch.object(MutationJournal, "append", append)


# --------------------------------------------------------------------------- #
# Kill-replay harness
# --------------------------------------------------------------------------- #
_CHURN = FaultScenarioConfig(join_rate=0.30, leave_rate=0.10, fault_seed=13)


@functools.lru_cache(maxsize=8)
def churn_schedule(
    dataset: str = "facebook",
    num_nodes: Optional[int] = 120,
    seed: int = 0,
    scenario: FaultScenarioConfig = _CHURN,
    rounds: int = 10,
    mcmc_iterations: int = 40,
    rebalance_every: int = 4,
):
    """``(selection, adjacency, schedule)`` of one deterministic churn run.

    Cached: a crash sweep starts the same schedule once per crash point, and
    every consumer copies what it reads.
    """
    lists, ego, num_devices = _constructed_tree(dataset, num_nodes, seed, mcmc_iterations)
    plan = FaultPlan.compile(scenario, num_devices, rounds)
    return lists, ego, compile_churn_schedule(plan, ego, rebalance_every=rebalance_every)


def _snapshots(snapshot_dir) -> DiskSpillStore:
    return DiskSpillStore(snapshot_dir, max_bytes=64 * 1024 * 1024)


def run_schedule(journal_path, snapshot_dir, **scenario) -> str:
    """Build the tree, run the whole churn schedule, return the state digest.

    Under an installed :func:`journal_crash_point` it dies (or raises) part
    way, leaving a torn journal behind.
    """
    lists, ego, schedule = churn_schedule(**scenario)
    journal = MutationJournal.create(journal_path)
    try:
        tree = MaintainedTree.from_construction(
            lists, ego, MaintenanceConfig(), journal=journal, snapshots=_snapshots(snapshot_dir)
        )
        apply_schedule(tree, schedule)
        return tree.state_digest()
    finally:
        journal.close()


def resume_schedule(journal_path, snapshot_dir, **scenario) -> Tuple[str, int]:
    """Recover a (possibly torn) journal and finish the schedule.

    Returns ``(state digest, resume index)``.  The resume index is the
    recovered ``tree.seq``: each schedule entry journals exactly one
    mutation, which is what makes crash recovery a slice.
    """
    _, _, schedule = churn_schedule(**scenario)
    tree = MaintainedTree.recover(journal_path, _snapshots(snapshot_dir))
    try:
        resumed_at = tree.seq
        apply_schedule(tree, schedule, start=resumed_at)
        return tree.state_digest(), resumed_at
    finally:
        tree.journal.close()
