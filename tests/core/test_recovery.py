"""Tests for metadata recovery from self-contained chunks (§4.1.2)."""

import pytest

from repro.core import meta, recovery
from repro.errors import DatasetNotFoundError, FileNotFoundInDatasetError

from tests.core.conftest import build_deployment, small_files, write_dataset


def snapshot_kv_state(deployment, dataset):
    """Capture the full metadata view for later comparison."""
    files = {}
    for key, blob in deployment.kv.local_pscan(meta.file_key_prefix(dataset)):
        rec = meta.FileRecord.decode(blob)
        files[rec.path] = (rec.chunk_id, rec.offset, rec.length, rec.crc32)
    dsrec = deployment.server.dataset_info(dataset)
    return files, set(dsrec.chunk_ids)


class TestScenarioB:
    """Total loss: rebuild everything by scanning chunks in written order."""

    def test_full_rebuild_restores_all_records(self, deployment):
        files = small_files(30)
        write_dataset(deployment, "ds", files, chunk_size=16 * 1024)
        before_files, before_chunks = snapshot_kv_state(deployment, "ds")

        deployment.kv.lose_all()
        assert deployment.kv.total_keys() == 0
        with pytest.raises(DatasetNotFoundError):
            deployment.server.dataset_info("ds")

        def proc():
            n = yield from recovery.rebuild_dataset(deployment.server, "ds")
            return n

        scanned = deployment.run(proc())
        assert scanned == len(before_chunks)
        after_files, after_chunks = snapshot_kv_state(deployment, "ds")
        assert after_files == before_files
        assert after_chunks == before_chunks

    def test_reads_work_after_rebuild(self, deployment):
        files = small_files(12)
        write_dataset(deployment, "ds", files, chunk_size=8 * 1024)
        deployment.kv.lose_all()
        deployment.run(recovery.rebuild_dataset(deployment.server, "ds"))

        path = next(iter(files))

        def read(p):
            data = yield from deployment.server.call(
                deployment.client_nodes[0], "get_file", "ds", p
            )
            return data

        assert deployment.run(read(path)) == files[path]

    def test_rebuild_all_discovers_datasets(self, deployment):
        write_dataset(deployment, "alpha", small_files(6, prefix="/a"))
        write_dataset(deployment, "beta", small_files(4, prefix="/b"))
        deployment.kv.lose_all()

        def proc():
            result = yield from recovery.rebuild_all(deployment.server)
            return result

        result = deployment.run(proc())
        assert set(result) == {"alpha", "beta"}
        assert all(n >= 1 for n in result.values())
        assert deployment.server.dataset_info("alpha").chunk_ids
        assert deployment.server.dataset_info("beta").chunk_ids

    def test_rebuild_reads_headers_not_payloads(self, deployment):
        """Recovery must be header-granular (the Fig 11b speed source)."""
        files = small_files(64, size=64 * 1024)  # 4 MB of payload
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        deployment.kv.lose_all()
        before = deployment.store.device.stats.read_bytes
        deployment.run(recovery.rebuild_dataset(deployment.server, "ds"))
        scanned_bytes = deployment.store.device.stats.read_bytes - before
        assert scanned_bytes < deployment.store.size_bytes() / 5

    def test_verify_rebuild_clean(self, deployment):
        files = small_files(10)
        write_dataset(deployment, "ds", files)
        deployment.kv.lose_all()
        deployment.run(recovery.rebuild_dataset(deployment.server, "ds"))
        expected = {p: len(d) for p, d in files.items()}
        assert recovery.verify_rebuild(deployment.server, "ds", expected) == []

    def test_verify_rebuild_detects_missing(self, deployment):
        files = small_files(5)
        write_dataset(deployment, "ds", files)
        problems = recovery.verify_rebuild(
            deployment.server, "ds", {**{p: len(d) for p, d in files.items()},
                                      "/phantom": 1}
        )
        assert any("missing file record" in p for p in problems)


class TestScenarioA:
    """Partial loss: rescan only chunks written from a timestamp onward."""

    def test_rescan_from_timestamp_restores_recent_chunks(self, deployment):
        env = deployment.env
        old_files = small_files(10, prefix="/old")
        write_dataset(deployment, "ds", old_files, chunk_size=8 * 1024)

        # Advance simulated time so the next batch lands in a later second.
        env.run(until=env.now + 10)
        cut_ts = int(env.now)
        new_files = small_files(10, prefix="/new")
        write_dataset(deployment, "ds", new_files, chunk_size=8 * 1024)

        # Simulate losing only the *recent* writes: delete new files' pairs.
        for path in new_files:
            deployment.kv.local_delete(meta.file_key("ds", path))

        def proc():
            n = yield from recovery.rebuild_dataset(
                deployment.server, "ds", from_timestamp=cut_ts
            )
            return n

        scanned = deployment.run(proc())
        assert scanned >= 1
        # Both old and new records now present.
        for path in list(old_files) + list(new_files):
            assert deployment.kv.local_get_or_none(meta.file_key("ds", path))

    def test_rescan_from_timestamp_skips_old_chunks(self, deployment):
        env = deployment.env
        write_dataset(deployment, "ds", small_files(10, prefix="/old"),
                      chunk_size=8 * 1024)
        n_old = len(deployment.store.list_keys())
        env.run(until=env.now + 10)
        cut_ts = int(env.now)
        write_dataset(deployment, "ds", small_files(10, prefix="/new"),
                      chunk_size=8 * 1024)
        n_total = len(deployment.store.list_keys())

        def proc():
            n = yield from recovery.rebuild_dataset(
                deployment.server, "ds", from_timestamp=cut_ts
            )
            return n

        scanned = deployment.run(proc())
        assert scanned == n_total - n_old


    def test_lost_shard_restarts_cold_and_is_rebuilt(self, deployment):
        """A KV node dies; once it is restored and its instance restarted
        (empty), a rescan from the last second before the loss makes
        the metadata whole again."""
        files = small_files(30, size=1024)
        write_dataset(deployment, "ds", files, chunk_size=8 * 1024)
        victim = deployment.kv.instances[1]
        keys_before = deployment.kv.total_keys()
        deployment.env.run(until=deployment.env.now + 0.1)
        last_good = int(deployment.env.now)
        victim.node.kill()
        assert not victim.up
        victim.node.restore()
        victim.restart()
        assert victim.up
        assert deployment.kv.total_keys() < keys_before  # restarted empty

        def proc():
            n = yield from recovery.rebuild_dataset(
                deployment.server, "ds", from_timestamp=last_good
            )
            return n

        assert last_good == 0
        assert deployment.run(proc()) > 0
        # Every pair replayed, nothing missing.
        assert deployment.kv.total_keys() == keys_before
        expected = {p: len(b) for p, b in files.items()}
        assert recovery.verify_rebuild(deployment.server, "ds", expected) == []


class TestDeletionPersistence:
    """Tombstones must survive a metadata rebuild (chunks stay
    self-contained, §4.1.1/§4.1.2)."""

    def test_deleted_file_not_resurrected_by_rebuild(self, deployment):
        files = small_files(10)
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        victim = next(iter(files))

        def delete():
            yield from deployment.server.call(
                deployment.client_nodes[0], "delete_file", "ds", victim
            )

        deployment.run(delete())
        deployment.kv.lose_all()
        deployment.run(recovery.rebuild_dataset(deployment.server, "ds"))
        # The tombstone came back from the chunk header, not KV.
        assert deployment.kv.local_get_or_none(
            meta.file_key("ds", victim)
        ) is None
        dsrec = deployment.server.dataset_info("ds")
        crec = deployment.server._chunk_record("ds", dsrec.chunk_ids[0])
        assert crec.ndeleted == 1

    def test_survivors_still_readable_after_rebuild(self, deployment):
        files = small_files(6)
        write_dataset(deployment, "ds", files, chunk_size=1024 * 1024)
        victim, survivor = list(files)[:2]

        def delete():
            yield from deployment.server.call(
                deployment.client_nodes[0], "delete_file", "ds", victim
            )

        deployment.run(delete())
        deployment.kv.lose_all()
        deployment.run(recovery.rebuild_dataset(deployment.server, "ds"))

        def read(p):
            data = yield from deployment.server.call(
                deployment.client_nodes[0], "get_file", "ds", p
            )
            return data

        assert deployment.run(read(survivor)) == files[survivor]
        with pytest.raises(FileNotFoundInDatasetError):
            deployment.run(read(victim))


class TestVerifyRebuildNarrowing:
    """Regression: verify_rebuild must not swallow programming errors.

    The handlers around ``server._file_record`` / ``server.dataset_info``
    are narrowed to ``(ReproError, KeyError)`` — "the record is not
    there" — so a genuine bug (TypeError, AttributeError, ...) raised
    while checking a record propagates instead of being misreported as
    a missing record.
    """

    def test_missing_records_still_counted_as_problems(self, deployment):
        files = small_files(8)
        write_dataset(deployment, "ds", files, chunk_size=8 * 1024)
        expected = {p: len(b) for p, b in files.items()}
        expected["/img/never-written.jpg"] = 123
        problems = recovery.verify_rebuild(deployment.server, "ds", expected)
        assert problems == ["missing file record: /img/never-written.jpg"]

    def test_file_record_bug_propagates(self, deployment, monkeypatch):
        files = small_files(4)
        write_dataset(deployment, "ds", files, chunk_size=8 * 1024)

        def broken(dataset, path):
            raise TypeError("boom: a bug, not a missing record")

        monkeypatch.setattr(deployment.server, "_file_record", broken)
        with pytest.raises(TypeError):
            recovery.verify_rebuild(
                deployment.server, "ds", {next(iter(files)): 1}
            )

    def test_dataset_info_bug_propagates(self, deployment, monkeypatch):
        files = small_files(4)
        write_dataset(deployment, "ds", files, chunk_size=8 * 1024)

        def broken(dataset):
            raise AttributeError("boom: a bug, not a missing dataset")

        monkeypatch.setattr(deployment.server, "dataset_info", broken)
        with pytest.raises(AttributeError):
            recovery.verify_rebuild(deployment.server, "ds", {})
