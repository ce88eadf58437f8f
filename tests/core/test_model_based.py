"""Model-based testing: random operation sequences vs a dict reference.

Hypothesis drives arbitrary interleavings of put/overwrite/delete/purge/
read/ls against a live DIESEL deployment and an in-memory reference
model; after every sequence the two must agree on contents, listings and
metadata — the strongest guard against state-machine bugs in the
server's tombstone/purge/ingest logic.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DieselConfig
from repro.errors import FileNotFoundInDatasetError
from repro.util.pathutil import dirname

from tests.core.conftest import build_deployment

PATH_POOL = [f"/m/d{d}/f{f}" for d in range(3) for f in range(4)]

op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(PATH_POOL),
                  st.binary(min_size=1, max_size=64)),
        st.tuples(st.just("delete"), st.sampled_from(PATH_POOL)),
        st.tuples(st.just("purge")),
        st.tuples(st.just("read"), st.sampled_from(PATH_POOL)),
        st.tuples(st.just("ls"), st.sampled_from(["/m/d0", "/m/d1", "/m/d2"])),
    ),
    min_size=1,
    max_size=25,
)


class Reference:
    """The trivially-correct model: a dict."""

    def __init__(self) -> None:
        self.files: dict[str, bytes] = {}

    def put(self, path: str, data: bytes) -> None:
        self.files[path] = data

    def delete(self, path: str) -> bool:
        return self.files.pop(path, None) is not None

    def read(self, path: str):
        return self.files.get(path)

    def ls(self, directory: str) -> list[str]:
        names = {
            p.rsplit("/", 1)[-1]
            for p in self.files
            if dirname(p) == directory
        }
        return sorted(names)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=op_strategy)
def test_server_matches_reference_model(ops):
    dep = build_deployment()
    client = dep.new_client(
        "model", config=DieselConfig(chunk_size=256)
    )
    ref = Reference()
    node = dep.client_nodes[0]

    def apply(op):
        kind = op[0]
        if kind == "put":
            _, path, data = op
            exists = yield from dep.server.call(node, "exists", "model", path)
            if exists:
                yield from dep.server.call(node, "delete_file", "model", path)
            yield from client.put(path, data)
            yield from client.flush()
            ref.put(path, data)
        elif kind == "delete":
            _, path = op
            expect = ref.delete(path)
            try:
                yield from client.delete(path)
                assert expect, f"deleted {path} that the model lacks"
            except FileNotFoundInDatasetError:
                assert not expect, f"failed deleting {path} the model has"
        elif kind == "purge":
            if ref.files or wrote_any[0]:
                yield from client.purge()
        elif kind == "read":
            _, path = op
            expect = ref.read(path)
            try:
                data = yield from client.get(path)
                assert data == expect, f"content mismatch at {path}"
            except FileNotFoundInDatasetError:
                assert expect is None, f"lost {path}"
        elif kind == "ls":
            _, directory = op
            expect = ref.ls(directory)
            try:
                listing = yield from client.ls(directory)
            except Exception:
                listing = []
            assert listing == expect, f"listing mismatch under {directory}"

    wrote_any = [False]

    def drive():
        for op in ops:
            if op[0] == "put":
                wrote_any[0] = True
            yield from apply(op)
        # Final full-state audit.
        for path, data in ref.files.items():
            got = yield from client.get(path)
            assert got == data
        for path in set(PATH_POOL) - set(ref.files):
            try:
                yield from client.get(path)
                raise AssertionError(f"{path} should not exist")
            except FileNotFoundInDatasetError:
                pass

    dep.run(drive())


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=op_strategy)
def test_model_state_survives_recovery(ops):
    """After any op sequence, wiping KV and rebuilding from chunks must
    restore exactly the model's live files."""
    from repro.core import recovery

    dep = build_deployment()
    client = dep.new_client("model", config=DieselConfig(chunk_size=256))
    ref = Reference()
    node = dep.client_nodes[0]

    wrote_any = [False]

    def drive():
        for op in ops:
            if op[0] == "put":
                wrote_any[0] = True
                _, path, data = op
                exists = yield from dep.server.call(
                    node, "exists", "model", path
                )
                if exists:
                    yield from dep.server.call(
                        node, "delete_file", "model", path
                    )
                yield from client.put(path, data)
                yield from client.flush()
                ref.put(path, data)
            elif op[0] == "delete" and ref.delete(op[1]):
                yield from client.delete(op[1])
            elif op[0] == "purge" and wrote_any[0]:
                yield from client.purge()

    dep.run(drive())
    if not ref.files:
        return  # nothing was ever written; no dataset exists
    dep.kv.lose_all()
    dep.run(recovery.rebuild_dataset(dep.server, "model"))

    def audit():
        for path, data in ref.files.items():
            got = yield from client.get(path)
            assert got == data
        for path in set(PATH_POOL) - set(ref.files):
            try:
                yield from client.get(path)
                raise AssertionError(f"{path} resurrected by recovery")
            except FileNotFoundInDatasetError:
                pass

    dep.run(audit())


def test_tiered_write_face_round_trip():
    """The server's write face on a tiered deployment (``put_journaled``,
    ``head``, ``patch``, ``put``, ``delete``, ``list_keys``): every read
    matches a path -> bytes spec, and no patched, replaced or deleted
    chunk keeps an SSD copy until it is read again."""
    from repro.bench.setups import deploy, diesel_client
    from repro.core import recovery
    from repro.core.server import object_key
    from repro.util.ids import decode_chunk_id

    files = {f"/t/d{i % 3}/f{i}": bytes([i]) * (300 + i) for i in range(24)}
    tb = deploy(2, "ds", files, chunk_size=1024, tiered=True)
    store = tb.store
    client = diesel_client(tb, "ds", tb.compute_nodes[0], "c",
                           config=DieselConfig(chunk_size=1024))
    spec = dict(files)
    every_path = set(files)

    def check_reads():
        for path in sorted(every_path):
            if path in spec:
                assert tb.run(client.get(path)) == spec[path], path
            else:
                with pytest.raises(FileNotFoundInDatasetError):
                    tb.run(client.get(path))

    def warm():
        check_reads()
        tb.env.run()  # the fills behind the misses
        assert all(store.in_ssd(key) for key in store.list_keys())

    def chunk_key(path):
        cid = tb.run(client.stat(path))["chunk_id"]
        return object_key("ds", decode_chunk_id(cid))

    def cold_after(op):
        """Run ``op``; every key it wrote, patched or removed has no SSD
        copy; then reads match the spec and warm the tier again."""
        before = set(store.list_keys())
        touched = op()
        after = set(store.list_keys())
        for key in touched | (after ^ before):
            assert not store.in_ssd(key), key
        warm()

    warm()

    def dl_put():
        tb.run(client.put("/t/new/a", b"n" * 700))
        tb.run(client.flush())
        spec["/t/new/a"] = b"n" * 700
        every_path.add("/t/new/a")
        return set()

    def delete_file():
        key = chunk_key("/t/d0/f3")
        tb.run(client.delete("/t/d0/f3"))
        del spec["/t/d0/f3"]
        return {key}

    def put_overwrite():
        key = chunk_key("/t/d1/f4")
        tb.run(client.put_overwrite("/t/d1/f4", b"o" * 500))
        spec["/t/d1/f4"] = b"o" * 500
        return {key}

    def purge():
        assert tb.run(client.purge()) > 0
        return set()

    for op in (dl_put, delete_file, put_overwrite, purge):
        cold_after(op)

    tb.kv.lose_all()
    tb.run(recovery.rebuild_dataset(tb.diesel, "ds"))
    check_reads()
