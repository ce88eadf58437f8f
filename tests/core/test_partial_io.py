"""Tests for partial reads (DL_get_range), overwrite, and FUSE handles."""

import pytest

from repro.core.fuse import mount
from repro.errors import DieselError, FileNotFoundInDatasetError

from tests.core.conftest import build_deployment, write_dataset


PAYLOAD = bytes(range(256)) * 8  # 2048 bytes, position-identifiable


def setup(deployment, snapshot=True):
    client = write_dataset(deployment, "ds", {"/f/data.bin": PAYLOAD,
                                              "/f/other.bin": b"zz" * 100})
    if snapshot:
        def load():
            blob = yield from client.save_meta()
            yield from client.load_meta(blob)

        deployment.run(load())
    return client


class TestGetRange:
    def test_middle_slice(self, deployment):
        client = setup(deployment)

        def proc():
            data = yield from client.get_range("/f/data.bin", 100, 50)
            return data

        assert deployment.run(proc()) == PAYLOAD[100:150]

    def test_from_start_and_to_eof(self, deployment):
        client = setup(deployment)

        def proc():
            head = yield from client.get_range("/f/data.bin", 0, 16)
            tail = yield from client.get_range("/f/data.bin", 2040, 100)
            return head, tail

        head, tail = deployment.run(proc())
        assert head == PAYLOAD[:16]
        assert tail == PAYLOAD[2040:]  # clamped at EOF, like read(2)

    def test_past_eof_returns_empty(self, deployment):
        client = setup(deployment)

        def proc():
            data = yield from client.get_range("/f/data.bin", 10_000, 10)
            return data

        assert deployment.run(proc()) == b""

    def test_without_snapshot_still_works(self, deployment):
        client = setup(deployment, snapshot=False)

        def proc():
            data = yield from client.get_range("/f/data.bin", 8, 8)
            return data

        assert deployment.run(proc()) == PAYLOAD[8:16]

    def test_negative_args_rejected(self, deployment):
        client = setup(deployment)

        def proc():
            yield from client.get_range("/f/data.bin", -1, 10)

        with pytest.raises(DieselError):
            deployment.run(proc())

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("offset,length", [(-8, 4), (4, -2)])
    def test_negative_args_rejected_before_any_cost(
        self, deployment, shuffle, offset, length
    ):
        """The shuffle path rejects what the server path rejects: a
        negative offset must not slice from the end, nor a negative
        length return ``b""``."""
        client = setup(deployment)
        if shuffle:
            client.enable_shuffle(group_size=1)
            client.epoch_file_list()
        gets, now = client.stats.gets, deployment.env.now
        with pytest.raises(DieselError, match="non-negative"):
            deployment.run(client.get_range("/f/data.bin", offset, length))
        assert (client.stats.gets, deployment.env.now) == (gets, now)

    def test_range_read_moves_fewer_bytes_than_full_read(self, deployment):
        client = setup(deployment, snapshot=False)
        before = deployment.store.device.stats.read_bytes

        def proc():
            yield from client.get_range("/f/data.bin", 0, 64)

        deployment.run(proc())
        moved = deployment.store.device.stats.read_bytes - before
        assert moved < len(PAYLOAD) / 4

    def test_shuffle_mode_serves_ranges_from_group_cache(self, deployment):
        client = setup(deployment)
        client.enable_shuffle(group_size=1)
        client.epoch_file_list()

        def proc():
            first = yield from client.get_range("/f/data.bin", 10, 10)
            again = yield from client.get_range("/f/data.bin", 20, 10)
            return first, again

        first, again = deployment.run(proc())
        assert first == PAYLOAD[10:20]
        assert again == PAYLOAD[20:30]
        assert client.stats.local_hits >= 1


class TestShuffleRangeMatchesTheServer:
    """A shuffle-mode range read slices only ``[offset, offset + length)``
    out of the resident chunk, and answers as the server's
    ``get_file_range`` does: clamped past EOF, empty for zero length,
    refused for a negative argument."""

    def _both(self, deployment, offset, length):
        """``(server, window)``: each range read's bytes, or its error."""
        client = setup(deployment)
        node = deployment.client_nodes[0]

        def outcome(gen):
            try:
                return deployment.run(gen)
            except DieselError as exc:
                return type(exc), "non-negative" in str(exc)

        server = outcome(deployment.server.call(
            node, "get_file_range", "ds", "/f/data.bin", offset, length
        ))
        client.enable_shuffle(group_size=1)
        window = outcome(client.get_range("/f/data.bin", offset, length))
        return server, window

    @pytest.mark.parametrize("offset,length", [
        (0, 16), (100, 50), (2040, 100), (0, 5000),  # in file, clamped at EOF
        (2048, 10), (10_000, 10),                     # at and past EOF
        (0, 0), (500, 0), (2048, 0), (9_999, 0),      # zero length
        (-1, 10), (10, -1), (-5, -5),                 # negative
    ])
    def test_same_answer(self, deployment, offset, length):
        server, window = self._both(deployment, offset, length)
        assert window == server
        if isinstance(server, bytes):
            assert server == PAYLOAD[offset : offset + length]

    def test_copies_only_the_range(self, deployment, monkeypatch):
        from repro.core.chunk import Chunk

        client = setup(deployment)
        client.enable_shuffle(group_size=1)
        asked = []
        extent = Chunk.extent

        def spy(self, *args):
            piece = extent(self, *args)
            asked.append(len(piece))
            return piece

        monkeypatch.setattr(Chunk, "extent", spy)
        monkeypatch.setattr(Chunk, "payload", None)  # no whole-file read
        got = deployment.run(client.get_range("/f/data.bin", 100, 7))
        assert got == PAYLOAD[100:107] and asked == [7]


class TestOverwrite:
    def test_overwrite_replaces_content(self, deployment):
        client = setup(deployment, snapshot=False)

        def proc():
            yield from client.put_overwrite("/f/data.bin", b"NEW-CONTENT")
            data = yield from client.get("/f/data.bin")
            return data

        assert deployment.run(proc()) == b"NEW-CONTENT"

    def test_overwrite_creates_when_missing(self, deployment):
        client = setup(deployment, snapshot=False)

        def proc():
            yield from client.put_overwrite("/f/fresh.bin", b"hello")
            data = yield from client.get("/f/fresh.bin")
            return data

        assert deployment.run(proc()) == b"hello"

    def test_old_version_becomes_hole_then_purged(self, deployment):
        client = setup(deployment, snapshot=False)

        def proc():
            yield from client.put_overwrite("/f/data.bin", b"v2")
            rewritten = yield from client.purge()
            data = yield from client.get("/f/data.bin")
            return rewritten, data

        rewritten, data = deployment.run(proc())
        assert rewritten >= 1
        assert data == b"v2"

    def test_overwrite_bumps_dataset_ts(self, deployment):
        client = setup(deployment, snapshot=False)
        ts1 = deployment.server.dataset_info("ds").update_ts

        def proc():
            yield from client.put_overwrite("/f/data.bin", b"x")

        deployment.run(proc())
        assert deployment.server.dataset_info("ds").update_ts > ts1


class TestFuseHandles:
    def _mount(self, deployment):
        client = setup(deployment)
        return mount([client])

    def test_open_read_sequential(self, deployment):
        m = self._mount(deployment)

        def proc():
            fh = yield from m.open("/f/data.bin")
            a = yield from fh.read(100)
            b = yield from fh.read(100)
            rest = yield from fh.read()
            fh.close()
            return a, b, rest

        a, b, rest = deployment.run(proc())
        assert a == PAYLOAD[:100]
        assert b == PAYLOAD[100:200]
        assert rest == PAYLOAD[200:]

    def test_seek(self, deployment):
        m = self._mount(deployment)

        def proc():
            fh = yield from m.open("/f/data.bin")
            fh.seek(500)
            a = yield from fh.read(10)
            fh.seek(-8, 2)  # from EOF
            b = yield from fh.read(100)
            fh.seek(-10, 1)  # relative
            c = yield from fh.read(4)
            return a, b, c, fh.pos

        a, b, c, pos = deployment.run(proc())
        assert a == PAYLOAD[500:510]
        assert b == PAYLOAD[-8:]
        assert c == PAYLOAD[2038:2042]
        assert pos == 2042

    def test_pread_keeps_position(self, deployment):
        m = self._mount(deployment)

        def proc():
            fh = yield from m.open("/f/data.bin")
            fh.seek(7)
            piece = yield from fh.pread(16, 1000)
            return piece, fh.pos

        piece, pos = deployment.run(proc())
        assert piece == PAYLOAD[1000:1016]
        assert pos == 7

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_pread_negative_offset_rejected(self, deployment, shuffle):
        client = setup(deployment)
        if shuffle:
            client.enable_shuffle(group_size=1)
            client.epoch_file_list()
        m = mount([client])

        def proc():
            fh = yield from m.open("/f/data.bin")
            fh.seek(7)
            try:
                yield from fh.pread(4, -8)
            finally:
                assert fh.pos == 7

        with pytest.raises(DieselError, match="non-negative"):
            deployment.run(proc())

    def test_closed_handle_rejected(self, deployment):
        m = self._mount(deployment)

        def proc():
            fh = yield from m.open("/f/data.bin")
            fh.close()
            yield from fh.read(10)

        with pytest.raises(DieselError):
            deployment.run(proc())

    def test_open_directory_rejected(self, deployment):
        m = self._mount(deployment)

        def proc():
            yield from m.open("/f")

        with pytest.raises(DieselError):
            deployment.run(proc())

    def test_open_missing_raises(self, deployment):
        m = self._mount(deployment)

        def proc():
            yield from m.open("/ghost")

        with pytest.raises(FileNotFoundInDatasetError):
            deployment.run(proc())

    def test_bad_seek_rejected(self, deployment):
        m = self._mount(deployment)

        def proc():
            fh = yield from m.open("/f/data.bin")
            return fh

        fh = deployment.run(proc())
        with pytest.raises(DieselError):
            fh.seek(-1)
        with pytest.raises(DieselError):
            fh.seek(0, 9)
