"""Worker-process side of the parallel runtime.

Each worker is one OS process running :func:`worker_main`: it opens its own
:class:`~repro.engine.store.DiskSpillStore` view onto the scheduler's shared
spill directory, then serves work items from its private task queue until it
receives the ``None`` sentinel.

Result hand-off is two-channel by design:

* the (potentially large) result payload is **persisted through the store**
  under a key derived from the item's content key — the same atomic-publish
  path cached pipeline artifacts use, so the control channel stays tiny;
* a small control message (``done`` / ``fail``) travels over the result
  queue so the scheduler can track liveness, retries and idle workers.

A worker that dies mid-item (crash, kill, timeout) simply never sends the
control message; the scheduler notices the dead process, re-dispatches the
item elsewhere, and the engine's content-keyed caching makes the retry
resume from whatever artifacts the first attempt already persisted.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..engine.store import DiskSpillStore, StoredArtifact

#: Control-message tags on the result queue.
DONE = "done"
FAIL = "fail"

#: Byte budget of the shared spill store (scheduler and workers).
DEFAULT_STORE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic worker-fault injection for chaos-testing the runtime.

    Each ``(item key, attempt)`` pair maps through a seeded hash to one
    uniform draw that selects an action: ``crash`` hard-kills the worker
    mid-item (``os._exit``, so no exception handler runs — exactly the
    failure mode the scheduler's liveness pass owns), ``stall`` sleeps for
    ``stall_seconds`` before executing (with an item timeout below the stall
    this exercises the deadline-kill path).  Injection applies only to
    attempts ``<= max_attempt`` so retries are guaranteed to converge
    whenever the executor's ``retries`` budget covers it.
    """

    seed: int = 0
    crash_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 5.0
    max_attempt: int = 1

    def __post_init__(self) -> None:
        for name in ("crash_rate", "stall_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.crash_rate + self.stall_rate > 1.0:
            raise ValueError("crash_rate + stall_rate must not exceed 1")
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")
        if self.max_attempt < 0:
            raise ValueError("max_attempt must be non-negative")


def chaos_action(
    chaos: Optional[ChaosConfig], item_key: str, attempt: int
) -> Optional[str]:
    """The injected action for this ``(item, attempt)``, or ``None``.

    Pure function of ``(chaos.seed, item_key, attempt)`` — the schedule is
    identical no matter which worker picks the item up or when.
    """
    if chaos is None or attempt > chaos.max_attempt:
        return None
    digest = hashlib.sha256(
        f"chaos/{chaos.seed}/{attempt}/{item_key}".encode("utf-8")
    ).digest()
    uniform = int.from_bytes(digest[:8], "little") / 2.0**64
    if uniform < chaos.crash_rate:
        return "crash"
    if uniform < chaos.crash_rate + chaos.stall_rate:
        return "stall"
    return None


def result_key(item_key: str) -> str:
    """Store key under which an item's result payload is published."""
    return f"workitem-result/{item_key}"


def open_worker_store(spill_directory: str) -> DiskSpillStore:
    """The store a worker (or the scheduler) uses for artifact hand-off."""
    return DiskSpillStore(spill_directory, max_bytes=DEFAULT_STORE_BYTES, max_entries=256)


def publish_result(store: DiskSpillStore, item_key: str, payload: dict) -> None:
    """Durably publish an item's payload for the scheduler to hydrate."""
    key = result_key(item_key)
    store.put(key, StoredArtifact(value=payload))
    store.persist(key)


def worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    spill_directory: str,
    chaos: Optional[ChaosConfig] = None,
    trace: bool = False,
) -> None:
    """Serve work items until the ``None`` sentinel arrives.

    With ``trace`` set, each item runs under a fresh per-item
    :class:`~repro.obs.tracer.Tracer` whose snapshot rides back inside the
    result payload under the ``"obs"`` key — the scheduler strips it into
    :attr:`~repro.runtime.executor.ItemRecord.obs` and merges snapshots in
    plan-request order.  Untraced payloads carry no ``"obs"`` key at all,
    so traced-off runs stay byte-identical to a never-instrumented build.
    """
    # A forked worker inherits the parent's module globals — including any
    # active tracer.  Observability is strictly opt-in per item below, so
    # clear the ambient slot first; parent-side spans must never leak into
    # (or double-count within) worker snapshots.
    obs.set_tracer(None)
    store = open_worker_store(spill_directory)
    while True:
        task = task_queue.get()
        if task is None:
            return
        ticket, item, attempt = task  # (int, WorkItem, int)
        key = item.key()
        try:
            action = chaos_action(chaos, key, attempt)
            if action == "crash":
                # Simulate a hard worker death: bypass every exception
                # handler and atexit hook, exactly like a SIGKILL would.
                os._exit(86)
            elif action == "stall":
                time.sleep(chaos.stall_seconds)
            if trace:
                with obs.tracing(process=f"worker-{worker_id}") as tracer:
                    with obs.span(
                        "runtime.item",
                        label=item.label or type(item).__name__,
                        attempt=attempt,
                    ):
                        payload = item.execute(store)
                payload = dict(payload)
                payload["obs"] = tracer.snapshot()
            else:
                payload = item.execute(store)
            publish_result(store, key, payload)
            result_queue.put((DONE, worker_id, ticket, key, None))
        except BaseException:
            # In-process exceptions are deterministic item failures (they
            # would fail identically on retry); ship the traceback so the
            # scheduler can report them.  Hard crashes (os._exit, signals)
            # never reach this handler — the scheduler detects those by
            # process liveness instead.
            result_queue.put((FAIL, worker_id, ticket, key, traceback.format_exc()))
