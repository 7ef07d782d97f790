"""Spill-file integrity: checksums on write, verification + quarantine on read.

``DiskSpillStore`` persists evicted artifacts as ``.npz`` files.  A partial
write (process kill mid-spill), filesystem bit rot, or a stale-format file
from an older revision must never crash the process that reloads it — the
contract is *miss, quarantine, recompute*:

* every spilled payload carries a SHA-256 checksum, verified before the
  pickle is ever touched;
* an unusable file is renamed to ``*.npz.quarantined`` (kept for
  post-mortem, no longer advertised by ``__contains__``) and counted in
  ``integrity_failures``;
* the key can immediately be re-published by a later eviction.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.engine.store import DiskSpillStore, StoredArtifact


def _spilled(tmp_path, key: str = "stage/key", value=None) -> DiskSpillStore:
    store = DiskSpillStore(tmp_path, max_bytes=1)  # spill on every put
    store.put(key, StoredArtifact(value=np.arange(64) if value is None else value))
    assert store._path_for(key).exists()
    return store


class TestChecksumRoundTrip:
    def test_spilled_file_carries_a_verifiable_checksum(self, tmp_path):
        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        with np.load(path) as archive:
            assert set(archive.files) >= {"version", "key", "checksum", "payload"}
            assert len(archive["checksum"].tobytes()) == 32
        artifact = store.get("stage/key")
        assert artifact is not None
        assert np.array_equal(artifact.value, np.arange(64))
        assert store.integrity_failures == 0


class TestTruncatedFile:
    def test_truncated_npz_is_a_miss_not_a_crash(self, tmp_path):
        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # deliberate truncation

        assert store.get("stage/key") is None  # miss — caller recomputes
        assert store.integrity_failures == 1
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()
        # The store stops advertising the key entirely.
        assert "stage/key" not in store

    def test_empty_file_is_a_miss(self, tmp_path):
        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        path.write_bytes(b"")
        assert store.get("stage/key") is None
        assert store.integrity_failures == 1
        assert path.with_name(path.name + ".quarantined").exists()

    def test_fresh_reader_also_degrades_to_miss(self, tmp_path):
        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])

        reader = DiskSpillStore(tmp_path, max_bytes=1)
        assert reader.get("stage/key") is None
        assert reader.integrity_failures == 1


class TestTamperedPayload:
    def test_bit_flip_inside_a_valid_zip_fails_the_checksum(self, tmp_path):
        # A torn write is caught by the zip layer; silent corruption inside
        # a structurally valid archive is exactly what the checksum is for.
        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        with np.load(path) as archive:
            fields = {name: archive[name].copy() for name in archive.files}
        fields["payload"][len(fields["payload"]) // 2] ^= 0xFF
        buffer = io.BytesIO()
        np.savez(buffer, **fields)
        path.write_bytes(buffer.getvalue())

        assert store.get("stage/key") is None
        assert store.integrity_failures == 1
        assert path.with_name(path.name + ".quarantined").exists()


class TestConcurrentQuarantine:
    def test_two_readers_racing_the_same_corrupt_file_both_miss(self, tmp_path):
        """A checksum failure during concurrent reload by two readers: both
        degrade to a miss, the losing rename falls back harmlessly, and the
        bytes end up quarantined exactly once."""
        import threading

        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        readers = [DiskSpillStore(tmp_path, max_bytes=1) for _ in range(2)]
        barrier = threading.Barrier(2)
        results = [object(), object()]
        errors = []

        def reload(index: int) -> None:
            try:
                barrier.wait(timeout=10)
                results[index] = readers[index].get("stage/key")
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [threading.Thread(target=reload, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert results == [None, None]
        # At least one reader verified the checksum and quarantined the
        # bytes; a reader that lost the rename race still counts its own
        # failed load, so the total is one or two — never zero, never a crash.
        assert 1 <= sum(reader.integrity_failures for reader in readers) <= 2
        assert not path.exists()
        assert path.with_name(path.name + ".quarantined").exists()
        assert all("stage/key" not in reader for reader in readers)

        # Either reader can immediately re-publish, and both then read it.
        readers[0].put("stage/key", StoredArtifact(value=np.arange(4)))
        for reader in readers:
            artifact = reader.get("stage/key")
            assert artifact is not None
            assert np.array_equal(artifact.value, np.arange(4))


class TestRecoveryAfterQuarantine:
    def test_key_can_be_republished_after_quarantine(self, tmp_path):
        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        path.write_bytes(path.read_bytes()[:10])
        assert store.get("stage/key") is None

        # Recompute-and-republish: the quarantined bytes do not block the
        # fresh spill, and the new file round-trips.
        store.put("stage/key", StoredArtifact(value=np.full(8, 7)))
        artifact = store.get("stage/key")
        assert artifact is not None
        assert np.array_equal(artifact.value, np.full(8, 7))
        assert path.exists()
        assert path.with_name(path.name + ".quarantined").exists()

    def test_clear_removes_quarantined_files_too(self, tmp_path):
        store = _spilled(tmp_path)
        path = store._path_for("stage/key")
        path.write_bytes(b"junk")
        assert store.get("stage/key") is None
        store.clear()
        assert not list(tmp_path.glob("*.npz"))
        assert not list(tmp_path.glob("*.npz.quarantined"))
        assert store.integrity_failures == 0
