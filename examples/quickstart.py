#!/usr/bin/env python3
"""Quickstart: write a dataset into DIESEL, snapshot it, read it back.

Walks the full libDIESEL surface (Table 3 of the paper) against an
in-simulation deployment: a DIESEL server over a sharded KV store and an
NVMe-backed object store.

Run:  python examples/quickstart.py
"""

from repro.bench.setups import deploy, diesel_client
from repro.core.client import SyncDieselClient
from repro.core.config import DieselConfig


def main() -> None:
    # 1. Build a small simulated cluster and deploy DIESEL on it.
    tb = deploy(n_compute=2, n_storage=2, n_servers=1)

    # 2. DL_connect: a client context bound to the 'demo' dataset.
    client = SyncDieselClient(
        diesel_client(
            tb, "demo", tb.compute_nodes[0], "quickstart",
            config=DieselConfig(chunk_size=64 * 1024),  # small for the demo
        )
    )

    # 3. DL_put + DL_flush: small files are packed into chunks client-side.
    print("writing 100 files ...")
    for i in range(100):
        client.put(f"/train/class{i % 4}/img{i:03d}.jpg", bytes([i]) * 2048)
    client.flush()
    print(f"  chunks shipped: {client.client.stats.chunks_sent}")

    # 4. DL_save_meta / DL_load_meta: download the metadata snapshot; all
    #    further metadata ops are served locally in O(1).
    snapshot_blob = client.save_meta()
    index = client.load_meta(snapshot_blob)
    print(f"snapshot: {index.file_count} files, "
          f"{len(index.chunk_ids())} chunks, {len(snapshot_blob)} bytes")

    # 5. DL_ls / DL_stat: local, no server round trips.
    print("ls / ->", client.ls("/"))
    print("ls /train ->", client.ls("/train"))
    info = client.stat("/train/class0/img000.jpg")
    print(f"stat img000: size={info['size']}, chunk={info['chunk_id']}")

    # 6. DL_get: read data back and verify.
    data = client.get("/train/class1/img001.jpg")
    assert data == bytes([1]) * 2048
    print(f"read back img001: {len(data)} bytes OK")

    # 7. DL_shuffle: chunk-wise shuffled epoch orders (§4.3).
    client.enable_shuffle(group_size=2)
    epoch1 = client.epoch_file_list().files
    epoch2 = client.epoch_file_list().files
    assert sorted(epoch1) == sorted(epoch2)
    assert epoch1 != epoch2
    print(f"epoch orders differ: first five of epoch 1 = {epoch1[:5]}")

    # 8. Housekeeping: DL_delete + DL_purge rewrite holey chunks.
    client.delete("/train/class0/img000.jpg")
    rewritten = client.purge()
    print(f"deleted one file; purge rewrote {rewritten} chunk(s)")

    # 9. DL_close.
    client.close()
    print(f"done (simulated time spent: {tb.env.now * 1e3:.2f} ms)")


if __name__ == "__main__":
    main()
