"""Crash points the tests install, and the churn schedule they kill.

The recovery paths are proved by killing real processes, but nothing in
``src/`` knows how: each crash point here patches the one function a
process should die in and then lets unchanged production code run into it.

* :func:`item_crash_point` — a work item's ``execute`` in a
  ``ProcessExecutor`` worker.  Installed in the parent before the pool
  forks, so every worker inherits it.
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
recovery from a torn journal.  :func:`party_comparison_probe` is a
two-party session a runtime worker runs by name
(``helpers.crash_points:party_comparison_probe``).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import time
from typing import Optional, Tuple
from unittest import mock

import numpy as np

from repro.crypto import RemoteParty
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
from repro.maintenance.journal import _PREFIX, _frame

#: Exit code of every process a crash point kills.
CRASH_EXIT_CODE = 86


# --------------------------------------------------------------------------- #
# Crash points
# --------------------------------------------------------------------------- #
def item_crash_point(
    item_class, marker_dir, *, attempts: int = 1, stall_seconds: Optional[float] = None
):
    """The first ``attempts`` attempts at every ``item_class`` item die.

    Each attempt claims one marker file per item key with ``O_EXCL``; an
    attempt that finds every marker taken runs the item normally, whichever
    worker it lands on.  With ``stall_seconds`` the claiming attempt sleeps
    instead of dying, which past the item's timeout is the deadline kill.
    """
    original = item_class.execute

    def execute(self, store):
        name = hashlib.sha256(self.key().encode("utf-8")).hexdigest()
        for attempt in range(attempts):
            try:
                marker = os.open(
                    os.path.join(marker_dir, f"{name}.{attempt}"),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                continue
            os.close(marker)
            if stall_seconds is None:
                os._exit(CRASH_EXIT_CODE)
            time.sleep(stall_seconds)
            break
        return original(self, store)

    return mock.patch.object(item_class, "execute", execute)


def party_dies_before_send(send_number: int):
    """Every party process started in the block dies before its
    ``send_number``-th frame (1 is the ``ready`` handshake)."""
    original = transport.party_main

    def party_main(channel, config, private_values):
        sends = 0
        send = channel.send

        def counted_send(kind, payload=b""):
            nonlocal sends
            sends += 1
            if sends == send_number:
                os._exit(CRASH_EXIT_CODE)
            return send(kind, payload)

        channel.send = counted_send
        original(channel, config, private_values)

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
        frame = _frame(record)
        self._file.write(frame[: _PREFIX.size + (len(frame) - _PREFIX.size) // 2])
        self._file.flush()
        os.fsync(self._file.fileno())
        if in_process:
            raise JournalCrash(f"killed while journalling seq {seq}")
        os._exit(CRASH_EXIT_CODE)

    return mock.patch.object(MutationJournal, "append", append)


# --------------------------------------------------------------------------- #
# A two-party session a worker runs by name
# --------------------------------------------------------------------------- #
def party_comparison_probe(
    count: int = 16,
    bit_width: int = 16,
    seed: int = 0,
    die_before_send: Optional[int] = None,
    timeout: float = 5.0,
) -> dict:
    """Run one small remote comparison, its party optionally killed.

    Dispatched as a ``CallableItem`` (workers inherit the suite's
    ``sys.path``, which is how ``helpers.*`` resolves there), it puts a real
    two-party session inside a runtime worker: the crash point is installed
    in the worker, the party dies, and the driver's typed
    ``RemotePartyError`` leaves the worker as a ``FailedAttempt`` — never a
    hang, because every channel receive is deadline-bounded.
    """
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1 << bit_width, size=(2, count))
    driver = RemoteParty(bit_width=bit_width, timeout=timeout)
    crash = (
        contextlib.nullcontext()
        if die_before_send is None
        else party_dies_before_send(die_before_send)
    )
    with crash:
        outcome = driver.compare_batch(values[0], values[1], session_key=f"probe-{seed}")
    return {
        "count": count,
        "true_fraction": float(outcome.left_ge_right.mean()),
        "wire_bytes": outcome.report.wire_bytes,
    }


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
