"""Executors: where a work plan's items actually run.

Two implementations share one contract:

* :class:`SerialExecutor` — items run inline, in plan order, against one
  shared artifact store.  This is the reference semantics.
* :class:`ProcessExecutor` — items run across a pool of worker processes.
  The scheduler first computes the plan's shared pipeline prefix once
  (:func:`~repro.runtime.plan.shared_prefix_plan`) into a
  :class:`~repro.engine.store.DiskSpillStore` directory, then dispatches
  items one at a time to idle workers, tracking exactly which item is
  in flight on which process.  A worker that crashes or exceeds its
  timeout is killed and replaced, and its item is re-dispatched up to
  ``retries`` times; an item that still fails is *reported* (and, under
  ``strict``, raised) — never silently dropped.

The determinism contract both executors honour: for every item, the
returned :class:`ItemRecord`'s ``value``, ``ledger_summary``,
``ledger_records``, ``accountant`` and ``rng_state`` are bit-for-bit
identical regardless of executor, worker count, scheduling order or
retries.  That holds because items are self-contained (each builds its own
environment and RNG from its config) and because the engine's artifact
replay is itself bit-for-bit — a worker hydrating a cached construction is
indistinguishable from one that computed it.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import queue as queue_module
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import obs as observability
from ..engine.store import ArtifactStore
from .items import WorkItem
from .plan import WorkPlan, shared_prefix_plan
from .worker import DONE, ChaosConfig, open_worker_store, result_key, worker_main

#: How often the scheduler polls the result queue / worker liveness.
_POLL_SECONDS = 0.05

#: Default base of the exponential retry backoff (seconds).
DEFAULT_BACKOFF_BASE = 0.05

#: Ceiling on any single backoff delay (seconds).  Exponential growth past
#: this point only wedges the scheduler; real deployments cap and keep
#: retrying at the cap.
BACKOFF_CAP_SECONDS = 30.0

#: Largest doubling exponent ever applied.  ``2.0 ** 1024`` raises
#: ``OverflowError``, and with any sane ``base`` the cap is reached long
#: before this, so the clamp only exists to keep the function total for
#: adversarial ``attempt`` values.
_BACKOFF_MAX_EXPONENT = 63


def backoff_delay(seed: int, item_key: str, attempt: int, base: float) -> float:
    """Exponential backoff with deterministic seeded jitter.

    ``base * 2**(attempt-1)`` scaled by a jitter factor in ``[0.5, 1.5)``
    derived from ``(seed, item_key, attempt)`` — a pure function, so two
    schedulers replaying the same failures wait the same amount and the
    recorded ``backoff_seconds`` stat is reproducible.  Total for every
    ``attempt``: the exponent never goes negative (attempt 0 and 1 both use
    ``2**0``), is clamped before ``2.0 ** n`` can overflow a float, and the
    returned delay never exceeds :data:`BACKOFF_CAP_SECONDS`.
    """
    if base <= 0.0:
        return 0.0
    digest = hashlib.sha256(
        f"backoff/{seed}/{attempt}/{item_key}".encode("utf-8")
    ).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "little") / 2.0**64
    exponent = min(max(attempt - 1, 0), _BACKOFF_MAX_EXPONENT)
    return min(base * (2.0**exponent) * jitter, BACKOFF_CAP_SECONDS)


@dataclass(frozen=True)
class FailedAttempt:
    """Provenance of one failed dispatch of a work item.

    ``kind`` is ``"crash"`` (worker died), ``"timeout"`` (deadline kill),
    ``"missing-result"`` (acknowledged but payload unreadable) or
    ``"error"`` (deterministic in-worker exception).
    """

    attempt: int
    worker: Optional[int]
    kind: str
    reason: str


@dataclass
class ItemRecord:
    """Outcome of one executed work item (see the payload schema in
    :mod:`repro.runtime.items`).  ``attempts``/``worker``/``duration`` are
    scheduling metadata and deliberately excluded from any equivalence
    notion — everything else is covered by the determinism contract."""

    key: str
    label: str
    value: Any
    ledger_summary: Optional[dict]
    ledger_records: Optional[tuple]
    accountant: Optional[dict]
    rng_state: Optional[dict]
    attempts: int = 1
    worker: Optional[int] = None
    duration: float = 0.0
    #: Worker-side observability snapshot (spans + metrics), present only
    #: when the run was traced.  Scheduling metadata like ``attempts`` —
    #: excluded from every equivalence notion.
    obs: Optional[dict] = None

    @classmethod
    def from_payload(cls, item: WorkItem, payload: dict, **metadata) -> "ItemRecord":
        return cls(
            key=item.key(),
            label=item.label or type(item).__name__,
            value=payload["value"],
            ledger_summary=payload["ledger_summary"],
            ledger_records=payload["ledger_records"],
            accountant=payload["accountant"],
            rng_state=payload["rng_state"],
            obs=payload.get("obs"),
            **metadata,
        )


@dataclass
class RuntimeReport:
    """Everything an execution produced: records per item key, failures per
    item key (reason strings), per-attempt failure provenance (for every
    item that failed at least one attempt — including items that later
    succeeded on retry), and scheduler statistics."""

    records: Dict[str, ItemRecord] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    failure_attempts: Dict[str, Tuple[FailedAttempt, ...]] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)

    def value(self, key: str) -> Any:
        return self.records[key].value


class WorkItemFailure(RuntimeError):
    """Raised by a strict executor when items failed after all retries.

    ``failures`` keeps the final reason string per key (the stable surface
    existing callers match on); ``failure_attempts`` adds the per-attempt
    provenance — which worker, which attempt, crash vs timeout vs error.
    """

    def __init__(self, failures: Dict[str, str], report: "RuntimeReport") -> None:
        self.failures = failures
        self.report = report
        self.failure_attempts = report.failure_attempts
        parts = []
        for key, reason in failures.items():
            entry = f"{key.split('/', 2)[-1][:60]}: {reason.strip().splitlines()[-1]}"
            history = report.failure_attempts.get(key, ())
            if history:
                trail = ", ".join(
                    f"attempt {record.attempt}"
                    + (f" on worker {record.worker}" if record.worker is not None else "")
                    + f": {record.kind}"
                    for record in history
                )
                entry += f" [{trail}]"
            parts.append(entry)
        summary = "; ".join(parts)
        super().__init__(f"{len(failures)} work item(s) failed: {summary}")


class Executor:
    """Interface every executor implements."""

    def execute(self, plan: WorkPlan) -> RuntimeReport:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Run items inline, in plan order — the reference execution semantics.

    One shared store serves every item, so the plan's shared stages dedupe
    exactly like a serial sweep over one ``ArtifactStore`` always has.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store

    def execute(self, plan: WorkPlan) -> RuntimeReport:
        store = self.store if self.store is not None else ArtifactStore(max_entries=256)
        report = RuntimeReport(stats={"executor": "serial", "items": len(plan)})
        started = time.perf_counter()
        for item in plan.unique_items():
            item_started = time.perf_counter()
            with observability.span(
                "runtime.item", label=item.label or type(item).__name__
            ):
                payload = item.execute(store)
            observability.add_counter("runtime.dispatches")
            report.records[item.key()] = ItemRecord.from_payload(
                item, payload, duration=time.perf_counter() - item_started
            )
        report.stats["wall_seconds"] = time.perf_counter() - started
        report.stats["duplicate_requests"] = plan.duplicate_requests
        return report


class ProcessExecutor(Executor):
    """Schedule items across a pool of worker processes.

    ``max_workers`` sizes the pool (default ``os.cpu_count()``), ``retries``
    is the re-dispatch budget for crashed/timed-out items and ``timeout``
    the per-item wall-clock budget (an item-level ``timeout`` overrides
    it).  ``spill_dir`` pins the shared artifact directory (default: a
    temporary directory per ``execute`` call, removed afterwards);
    ``strict`` raises :class:`WorkItemFailure` when any item remains failed.

    Retries are re-dispatched after an exponential backoff with
    deterministic seeded jitter (:func:`backoff_delay`, disable with
    ``backoff_base=0``); the accumulated wait is reported as
    ``backoff_seconds`` in the runtime stats.  ``chaos`` installs a seeded
    :class:`~repro.runtime.worker.ChaosConfig` fault schedule in every
    worker — test-only machinery for proving the crash/timeout/retry path
    preserves the determinism contract.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
        spill_dir: Optional[str] = None,
        strict: bool = True,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_seed: int = 0,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        self.max_workers = max_workers
        self.retries = retries
        self.timeout = timeout
        self.spill_dir = spill_dir
        self.strict = strict
        self.backoff_base = backoff_base
        self.backoff_seed = backoff_seed
        self.chaos = chaos

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #
    def execute(self, plan: WorkPlan) -> RuntimeReport:
        items = plan.unique_items()
        report = RuntimeReport(
            stats={
                "executor": "process",
                "items": len(items),
                "duplicate_requests": plan.duplicate_requests,
                "crashes": 0,
                "timeouts": 0,
                "retries_used": 0,
                "backoff_seconds": 0.0,
            }
        )
        if not items:
            return report
        started = time.perf_counter()
        cleanup = None
        directory = self.spill_dir
        if directory is None:
            cleanup = tempfile.TemporaryDirectory(prefix="repro-runtime-")
            directory = cleanup.name
        try:
            with observability.span("runtime.execute", items=len(items)):
                store = open_worker_store(directory)
                warm_started = time.perf_counter()
                with observability.span("runtime.warmup"):
                    report.stats["warmup_runs"] = self._warm_shared_prefix(items, store)
                report.stats["warmup_seconds"] = time.perf_counter() - warm_started
                self._run_pool(items, directory, store, report)
                report.stats["store"] = store.stats()
            tracer = observability.current_tracer()
            if tracer is not None:
                # Merge worker snapshots in plan-request order — the one
                # order every scheduler interleaving agrees on — so the
                # assembled RunTrace is deterministic.
                for item in items:
                    record = report.records.get(item.key())
                    if record is not None:
                        tracer.attach_remote(record.obs)
        finally:
            if cleanup is not None:
                cleanup.cleanup()
        report.stats["wall_seconds"] = time.perf_counter() - started
        if report.failures and self.strict:
            raise WorkItemFailure(report.failures, report)
        return report

    def _warm_shared_prefix(self, items: List[WorkItem], store: ArtifactStore) -> int:
        """Compute each shared stage prefix once and persist it for workers."""
        from ..core.lumos import LumosSystem

        runs = shared_prefix_plan(items)
        for run in runs:
            graph = run.item.graph_spec.load()
            system = LumosSystem(graph, run.item.config, store=store)
            system.advance(run.through)
            for key in run.persist_keys:
                store.persist(key)
        return len(runs)

    @staticmethod
    def _mp_context():
        # On Linux, fork keeps warm per-process caches (loaded graphs,
        # backend state) visible to workers for free.  Everywhere else use
        # the platform default (spawn on Windows *and* macOS — forking a
        # process that touched Accelerate/ObjC is unsafe there, which is
        # why CPython switched its own default): items are self-contained
        # and importable-by-name, so any start method works.
        if sys.platform.startswith("linux") and "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _run_pool(
        self,
        items: List[WorkItem],
        directory: str,
        store: ArtifactStore,
        report: RuntimeReport,
    ) -> None:
        context = self._mp_context()
        worker_count = min(self.max_workers or os.cpu_count() or 1, len(items))
        result_queue = context.Queue()
        workers: Dict[int, Any] = {}
        task_queues: Dict[int, Any] = {}
        # worker id -> (dispatch ticket, item, started, deadline).  Tickets
        # disambiguate a live dispatch from a stale result: a worker we
        # killed at its deadline may have flushed a result message first,
        # and that message must not be attributed to whatever the respawned
        # worker is running now.
        inflight: Dict[int, Tuple[int, WorkItem, float, float]] = {}
        attempts: Dict[str, int] = {}
        attempt_failures: Dict[str, List[FailedAttempt]] = {}
        pending = deque(items)
        # Items waiting out their retry backoff: (monotonic ready time, item).
        deferred: List[Tuple[float, WorkItem]] = []
        done_keys: set = set()
        respawns = 0
        next_ticket = 0
        max_respawns = max(4, 2 * (self.retries + 1) * len(items))
        trace_workers = observability.current_tracer() is not None

        def spawn(worker_id: int) -> None:
            task_queues[worker_id] = context.Queue()
            process = context.Process(
                target=worker_main,
                args=(worker_id, task_queues[worker_id], result_queue,
                      directory, self.chaos, trace_workers),
                daemon=True,
            )
            process.start()
            workers[worker_id] = process
            observability.add_counter("runtime.spawns")
            observability.set_gauge("runtime.workers", float(len(workers)))

        def dispatch(worker_id: int) -> None:
            nonlocal next_ticket
            item = pending.popleft()
            key = item.key()
            attempts[key] = attempts.get(key, 0) + 1
            timeout = item.timeout if item.timeout is not None else self.timeout
            deadline = time.monotonic() + timeout if timeout is not None else float("inf")
            next_ticket += 1
            task_queues[worker_id].put((next_ticket, item, attempts[key]))
            inflight[worker_id] = (next_ticket, item, time.perf_counter(), deadline)
            observability.add_counter("runtime.dispatches")
            observability.observe("runtime.queue_depth", float(len(pending)))

        def give_up_or_retry(
            item: WorkItem, kind: str, reason: str, worker_id: Optional[int]
        ) -> None:
            key = item.key()
            attempt = attempts.get(key, 0)
            attempt_failures.setdefault(key, []).append(
                FailedAttempt(attempt=attempt, worker=worker_id, kind=kind, reason=reason)
            )
            observability.add_counter(f"runtime.attempt_failures.{kind}")
            if attempt <= self.retries:
                report.stats["retries_used"] += 1
                observability.add_counter("runtime.retries")
                delay = backoff_delay(self.backoff_seed, key, attempt, self.backoff_base)
                if delay > 0.0:
                    report.stats["backoff_seconds"] += delay
                    observability.add_counter("runtime.backoff_seconds", delay)
                    deferred.append((time.monotonic() + delay, item))
                else:
                    pending.appendleft(item)
            else:
                report.failures[key] = reason
                report.failure_attempts[key] = tuple(attempt_failures[key])

        def reap(worker_id: int, kill: bool) -> None:
            process = workers.pop(worker_id)
            if kill and process.is_alive():
                process.kill()
            process.join(timeout=5.0)
            task_queues.pop(worker_id, None)

        for worker_id in range(worker_count):
            spawn(worker_id)

        try:
            while len(done_keys) + len(report.failures) < len(items):
                # Promote items whose retry backoff has elapsed.
                if deferred:
                    now_monotonic = time.monotonic()
                    still_waiting = []
                    for ready_at, deferred_item in deferred:
                        if ready_at <= now_monotonic:
                            pending.append(deferred_item)
                        else:
                            still_waiting.append((ready_at, deferred_item))
                    deferred[:] = still_waiting

                # Keep every idle worker busy.  The liveness pre-check
                # avoids feeding a corpse (which would burn one of the
                # item's retry attempts on a death that predates it); a
                # worker dying in the instant after the check is handled by
                # the liveness pass like any mid-item crash.
                for worker_id in list(workers):
                    if pending and worker_id not in inflight and workers[worker_id].is_alive():
                        dispatch(worker_id)

                # Collect finished work.
                try:
                    tag, worker_id, ticket, key, detail = result_queue.get(
                        timeout=_POLL_SECONDS
                    )
                except queue_module.Empty:
                    pass
                except (EOFError, OSError, pickle.UnpicklingError):
                    # A worker killed mid-send can in principle leave a
                    # partial message in the shared queue (our control
                    # messages are far below PIPE_BUF, so single-write
                    # atomicity makes this effectively theoretical).  Treat
                    # it as "no message": the liveness/deadline pass below
                    # owns recovery for whatever worker caused it.
                    report.stats["queue_errors"] = report.stats.get("queue_errors", 0) + 1
                else:
                    entry = inflight.get(worker_id)
                    if entry is None or entry[0] != ticket:
                        # Stale flush from a worker we already gave up on
                        # (timeout kill racing its send); the item was
                        # re-dispatched or reported, so drop the message —
                        # re-execution is deterministic either way.
                        continue
                    _, item, item_started, _ = inflight.pop(worker_id)
                    if tag == DONE:
                        artifact = store.get(result_key(key))
                        if artifact is None:
                            # The worker acknowledged but the payload never
                            # became readable — treat like a crash.
                            report.stats["crashes"] += 1
                            observability.add_counter("runtime.crashes")
                            give_up_or_retry(
                                item,
                                "missing-result",
                                "result payload missing from store",
                                worker_id,
                            )
                        else:
                            done_keys.add(key)
                            if key in attempt_failures:
                                # Keep the provenance of the failed attempts
                                # that preceded this success.
                                report.failure_attempts[key] = tuple(
                                    attempt_failures[key]
                                )
                            report.records[key] = ItemRecord.from_payload(
                                item,
                                artifact.value,
                                attempts=attempts[key],
                                worker=worker_id,
                                duration=time.perf_counter() - item_started,
                            )
                    else:  # FAIL: deterministic in-worker exception
                        report.failures[key] = detail
                        attempt_failures.setdefault(key, []).append(
                            FailedAttempt(
                                attempt=attempts.get(key, 0),
                                worker=worker_id,
                                kind="error",
                                reason=detail,
                            )
                        )
                        report.failure_attempts[key] = tuple(attempt_failures[key])
                    continue

                # Liveness and deadlines.
                now = time.monotonic()
                for worker_id in list(workers):
                    process = workers[worker_id]
                    entry = inflight.get(worker_id)
                    if not process.is_alive():
                        reap(worker_id, kill=False)
                        if entry is not None:
                            item = entry[1]
                            del inflight[worker_id]
                            report.stats["crashes"] += 1
                            observability.add_counter("runtime.crashes")
                            give_up_or_retry(
                                item,
                                "crash",
                                f"worker process died (exit code {process.exitcode}) "
                                f"while running {item.label or item.key()}",
                                worker_id,
                            )
                    elif entry is not None and now > entry[3]:
                        item = entry[1]
                        del inflight[worker_id]
                        reap(worker_id, kill=True)
                        report.stats["timeouts"] += 1
                        observability.add_counter("runtime.timeouts")
                        give_up_or_retry(
                            item,
                            "timeout",
                            f"work item exceeded its {item.timeout or self.timeout}s "
                            f"timeout: {item.label or item.key()}",
                            worker_id,
                        )
                    if worker_id not in workers and (pending or inflight or deferred):
                        if respawns >= max_respawns:
                            raise RuntimeError(
                                "worker pool unstable: "
                                f"{respawns} respawns for {len(items)} items"
                            )
                        respawns += 1
                        spawn(worker_id)
        finally:
            for worker_id, process in list(workers.items()):
                task_queue = task_queues.get(worker_id)
                if task_queue is not None and process.is_alive():
                    task_queue.put(None)
            for process in workers.values():
                process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
            result_queue.close()
            report.stats["respawns"] = respawns
            report.stats["max_attempts"] = max(attempts.values(), default=0)
