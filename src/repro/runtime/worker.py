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

import traceback

from .. import obs
from ..engine.store import DiskSpillStore, StoredArtifact

#: Control-message tags on the result queue.
DONE = "done"
FAIL = "fail"

#: Byte budget of the shared spill store (scheduler and workers).
DEFAULT_STORE_BYTES = 256 * 1024 * 1024


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
