"""Content-keyed artifact store with LRU eviction and hit/miss accounting.

The store is what the engine is: every expensive stage of a
:class:`~repro.core.lumos.LumosSystem` (partition, tree construction, LDP
draws and thresholding, batch assembly) writes its result here under a key
derived from the *content* of its inputs (``LumosSystem._cached``).
Subsequent runs — another epsilon in a sweep, another backbone, a repeated
experiment — hit the store instead of recomputing, which is what turns a
sweep from O(points x full-pipeline) into O(stages-changed).

Hit/miss counters are tracked per stage name; :meth:`ArtifactStore.summary`
reports them, so tests and benchmarks can assert reuse (e.g. "a 5-point
epsilon sweep runs tree construction exactly once").
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from .. import obs


@dataclass
class StageStats:
    """Cache counters of one stage."""

    hits: int = 0
    misses: int = 0


@dataclass
class StoredArtifact:
    """One cached stage result plus the side effects needed to replay it.

    ``value`` is the stage's return value.  ``rng_state`` is the bit-generator
    state of the system's RNG *after* the stage ran, so a cache hit leaves the
    shared RNG stream exactly where a cold run would have — downstream stages
    (and training) are bit-for-bit identical either way.  ``ledger_delta`` is
    the rows the communication ledger gained while the stage ran
    (:meth:`~repro.federation.network.CommunicationLedger.since`), replayed
    into the (fresh) environment's ledger on a hit so system-side accounting
    does not depend on cache state.
    """

    value: Any
    rng_state: Optional[dict] = None
    ledger_delta: Any = None


class ArtifactStore:
    """In-memory LRU store mapping content keys to :class:`StoredArtifact`."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, StoredArtifact]" = OrderedDict()
        self.stage_stats: Dict[str, StageStats] = {}
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Entry access
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[StoredArtifact]:
        """Return the artifact stored under ``key`` (refreshing its LRU slot)."""
        artifact = self._entries.get(key)
        if artifact is not None:
            self._entries.move_to_end(key)
        return artifact

    def put(self, key: str, artifact: StoredArtifact) -> None:
        """Store ``artifact`` under ``key``, evicting the LRU entry if full."""
        self._entries[key] = artifact
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            evicted_key, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            obs.add_counter("store.evictions")
            self._on_evict(evicted_key, evicted)

    def _on_evict(self, key: str, artifact: StoredArtifact) -> None:
        """Hook invoked when an entry leaves memory (spill stores persist it)."""

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.stage_stats.clear()
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def _stats_for(self, stage: str) -> StageStats:
        if stage not in self.stage_stats:
            self.stage_stats[stage] = StageStats()
        return self.stage_stats[stage]

    def record_hit(self, stage: str) -> None:
        self._stats_for(stage).hits += 1

    def record_miss(self, stage: str) -> None:
        self._stats_for(stage).misses += 1

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss counters per stage, as plain dictionaries."""
        return {
            stage: {"hits": stats.hits, "misses": stats.misses}
            for stage, stats in sorted(self.stage_stats.items())
        }

    def stats(self) -> Dict[str, Any]:
        """One-call snapshot of the store's effectiveness counters.

        ``hits`` / ``misses`` aggregate over stages; ``evictions`` counts
        entries pushed out of the in-memory LRU.  Subclasses extend the
        snapshot (spill traffic, byte footprint) — benchmarks report it per
        run so cache effectiveness is visible next to the timings.
        """
        return {
            "entries": len(self._entries),
            "hits": sum(stats.hits for stats in self.stage_stats.values()),
            "misses": sum(stats.misses for stats in self.stage_stats.values()),
            "evictions": self.evictions,
            "per_stage": self.summary(),
        }


class DiskSpillStore(ArtifactStore):
    """Artifact store that spills over a byte budget to a disk directory.

    Entries live in memory (LRU, like :class:`ArtifactStore`) until the
    estimated in-memory footprint exceeds ``max_bytes``; the least recently
    used entries are then serialised to ``directory`` (one ``.npz`` per
    content key) and dropped from memory.  A later ``get`` — in this process
    or any other process pointed at the same directory — transparently loads
    the entry back, so paper-scale sweeps reuse artifacts across runs, which
    is exactly what content-derived keys make safe.

    Artifacts are pickled and wrapped in a ``uint8`` array inside the
    ``np.savez`` container, so loading never needs ``allow_pickle`` at the
    numpy layer and the format stays a single self-describing file per key.
    Every spill records a SHA-256 checksum of the payload bytes, verified on
    reload: a truncated or corrupted file is *quarantined* (renamed to
    ``*.quarantined`` so ``__contains__`` stops advertising it, preserved
    for post-mortem) and degrades to a cache miss — the artifact is simply
    recomputed, never crashing the process that hit it.
    """

    # v2 added the payload checksum field; v3 marks the columnar LDP artifacts
    # and the factored ``TreeBatch``, v4 ``TreeConstructionResult`` losing a
    # field, v5 ``StoredArtifact``'s single ``ledger_delta`` and
    # ``LDPDrawsResult`` losing ``sender_ids``, v6 ``LDPDrawsResult`` keeping
    # only the released uniforms (a CSR ``uniforms``, no ``bins``), v7 the
    # partition as ``(indptr, indices, features)`` arrays and
    # ``TreeConstructionResult.num_devices`` replacing ``local_graphs``, v8
    # the ledger table's open tail as typed column buffers instead of row
    # tuples, v9 ``Assignment`` as a mask over the CSR instead of a dict of
    # sets, v10 clear-mode construction ledgers holding per-device Alg. 3
    # announcement rows, v11 ``TreeConstructionResult`` without
    # ``greedy_assignment``, ``TreeBatch`` without ``device_slices`` and
    # ``EmbeddingInitializationResult`` without ``bytes_sent`` — pickled
    # contents that changed under unchanged stage keys.  Older files (or any
    # unreadable version) degrade to a miss and are quarantined like corrupt
    # files.
    _FORMAT_VERSION = 11

    def __init__(
        self,
        directory,
        max_bytes: int = 256 * 1024 * 1024,
        max_entries: int = 256,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        super().__init__(max_entries=max_entries)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._sizes: Dict[str, int] = {}
        self._total_bytes = 0
        self.spill_writes = 0
        self.spill_loads = 0
        self.integrity_failures = 0
        # Keys this instance has durably published (written or successfully
        # loaded).  Only they may skip the atomic re-publish on eviction:
        # a bare ``path.exists()`` is not a guarantee — another process may
        # have unlinked the file (corruption cleanup) between our check and
        # a reader's open.
        self._published: set = set()

    # ------------------------------------------------------------------ #
    # Entry access
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[StoredArtifact]:
        artifact = super().get(key)
        if artifact is not None:
            return artifact
        path = self._path_for(key)
        if not path.exists():
            return None
        artifact = self._load(path, key)
        if artifact is not None:
            self.spill_loads += 1
            obs.add_counter("store.spill_loads")
            self.put(key, artifact)
        return artifact

    def put(self, key: str, artifact: StoredArtifact) -> None:
        previous = self._sizes.pop(key, 0)
        self._total_bytes -= previous
        size = self._estimate_bytes(artifact)
        self._sizes[key] = size
        self._total_bytes += size
        super().put(key, artifact)
        self._spill_over_budget()

    def __contains__(self, key: str) -> bool:
        return super().__contains__(key) or self._path_for(key).exists()

    def clear(self) -> None:
        """Drop memory entries, counters *and* this directory's spill files."""
        super().clear()
        self._sizes.clear()
        self._total_bytes = 0
        self._published.clear()
        self.spill_writes = 0
        self.spill_loads = 0
        self.integrity_failures = 0
        for pattern in ("*.npz", "*.npz.quarantined"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    pass

    @property
    def in_memory_bytes(self) -> int:
        """Estimated footprint of the entries currently held in memory."""
        return self._total_bytes

    def stats(self) -> Dict[str, Any]:
        """Extend the base snapshot with spill traffic and byte footprint."""
        snapshot = super().stats()
        snapshot.update(
            spill_writes=self.spill_writes,
            spill_loads=self.spill_loads,
            integrity_failures=self.integrity_failures,
            in_memory_bytes=self._total_bytes,
        )
        return snapshot

    # ------------------------------------------------------------------ #
    # Spill mechanics
    # ------------------------------------------------------------------ #
    def _on_evict(self, key: str, artifact: StoredArtifact) -> None:
        self._total_bytes -= self._sizes.pop(key, 0)
        self._write(key, artifact)

    def _spill_over_budget(self) -> None:
        while self._total_bytes > self.max_bytes and self._entries:
            key, artifact = self._entries.popitem(last=False)
            self.evictions += 1
            obs.add_counter("store.evictions")
            self._on_evict(key, artifact)

    def _write(self, key: str, artifact: StoredArtifact) -> None:
        path = self._path_for(key)
        if key in self._published and path.exists():
            # Entries are immutable under their content key and this
            # instance already published (or verified) the bytes — the file
            # on disk is current (e.g. a reloaded entry being evicted
            # again).  Any key we did *not* publish ourselves is re-written
            # below even if a file exists: the replace is atomic and
            # content-identical, so racing writers are harmless, while
            # skipping on a stale ``exists()`` observation could strand the
            # key with no file at all.
            return
        payload_bytes = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        payload = np.frombuffer(payload_bytes, dtype=np.uint8)
        checksum = hashlib.sha256(payload_bytes).digest()
        buffer = io.BytesIO()
        np.savez(
            buffer,
            version=np.int64(self._FORMAT_VERSION),
            key=np.frombuffer(key.encode("utf-8"), dtype=np.uint8),
            checksum=np.frombuffer(checksum, dtype=np.uint8),
            payload=payload,
        )
        # Per-process temp name: concurrent writers of one key (two sweeps
        # sharing a directory) must not interleave into one file; the
        # final rename publishes a complete file atomically, so readers in
        # other processes see either the previous complete file or this one,
        # never a torn write (stress-tested by
        # ``tests/test_store_concurrency.py``).
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        temporary.write_bytes(buffer.getvalue())
        temporary.replace(path)  # atomic publish for cross-process readers
        self._published.add(key)
        self.spill_writes += 1
        obs.add_counter("store.spill_writes")
        obs.add_counter("store.spill_bytes", len(payload_bytes))

    def persist(self, key: str) -> bool:
        """Force-publish the entry under ``key`` to disk (without evicting).

        Returns ``True`` when the key is durably on disk afterwards.
        :class:`~repro.maintenance.tree.MaintainedTree` persists each
        snapshot it journals, so a recovering process pointed at the
        directory can hydrate it.
        """
        artifact = self._entries.get(key)
        if artifact is not None:
            self._write(key, artifact)
            return True
        return self._path_for(key).exists()

    def _load(self, path: Path, key: str) -> Optional[StoredArtifact]:
        usable = False
        try:
            with np.load(path) as archive:
                version_ok = int(archive["version"]) == self._FORMAT_VERSION
                stored_key = bytes(archive["key"].tobytes()).decode("utf-8")
                if version_ok and stored_key == key:
                    payload_bytes = archive["payload"].tobytes()
                    checksum = bytes(archive["checksum"].tobytes())
                    if hashlib.sha256(payload_bytes).digest() != checksum:
                        return None  # bit rot / tampering inside a valid zip
                    artifact = pickle.loads(payload_bytes)
                    usable = True
                    self._published.add(key)
                    return artifact
                return None
        except Exception:
            return None
        finally:
            if not usable:
                # Any unusable file — truncated archive, checksum mismatch,
                # stale format or pickle from an older revision, digest
                # collision — degrades to a cache miss AND is quarantined
                # (renamed out of the ``*.npz`` namespace), so a later
                # eviction re-publishes the key, ``__contains__`` stops
                # advertising an unloadable entry, and the corrupt bytes
                # survive for post-mortem instead of being destroyed.
                self._published.discard(key)
                self.integrity_failures += 1
                obs.add_counter("store.integrity_failures")
                try:
                    path.replace(path.with_name(f"{path.name}.quarantined"))
                except OSError:
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def _path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
        return self.directory / f"{digest}.npz"

    @staticmethod
    def _estimate_bytes(artifact: StoredArtifact) -> int:
        """Cheap footprint estimate: array buffers plus a per-object floor."""
        seen: set = set()
        total = 0
        stack = [artifact.value, artifact.ledger_delta]
        while stack:
            obj = stack.pop()
            identity = id(obj)
            if identity in seen:
                continue
            seen.add(identity)
            if isinstance(obj, np.ndarray):
                total += obj.nbytes
            elif isinstance(obj, dict):
                total += 64 * len(obj)
                stack.extend(obj.keys())
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                total += 16 * len(obj)
                stack.extend(obj)
            elif isinstance(obj, (bytes, str)):
                total += len(obj)
            elif hasattr(obj, "__dict__"):
                total += 64
                stack.extend(vars(obj).values())
            elif hasattr(obj, "__slots__"):
                total += 64
                stack.extend(
                    getattr(obj, slot)
                    for slot in obj.__slots__
                    if hasattr(obj, slot)
                )
            else:
                total += 32
        return total


_default_store: Optional[ArtifactStore] = None


def default_store() -> ArtifactStore:
    """The process-wide store shared by all systems that don't pass their own."""
    global _default_store
    if _default_store is None:
        _default_store = ArtifactStore()
    return _default_store
