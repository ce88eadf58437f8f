#!/usr/bin/env python3
"""Chunk-wise shuffle in a memory-constrained setting (§4.3, Fig 8/13).

Demonstrates the paper's third contribution end to end:

  1. the epoch order is random (different every epoch) yet groupable
     into whole-chunk reads;
  2. the client's working set stays bounded by group_size × chunk_size
     — ~1.3% of this dataset — while reads stay fast;
  3. a real SGD classifier trained in chunk-wise order matches
     full-shuffle accuracy.

Run:  python examples/memory_constrained_shuffle.py
"""

import random

import numpy as np

from repro.bench.setups import deploy, diesel_client_with_snapshot
from repro.core.shuffle import chunk_adjacency
from repro.dlt.sgd import SoftmaxClassifier, top_k_accuracy
from repro.dlt.synthetic import SyntheticDataset, decode_sample


def main() -> None:
    # A synthetic classification dataset stored as one file per sample.
    data = SyntheticDataset.make(n_samples=2000, n_features=16,
                                 n_classes=10, class_sep=2.5, seed=3)
    train, test = data.split(test_fraction=0.25, seed=3)
    files = train.as_files(prefix="/synth")

    tb = deploy(1, "synth", files, chunk_size=8 * 1024)
    client = diesel_client_with_snapshot(tb, "synth", tb.compute_nodes[0],
                                         "trainer")
    n_chunks = len(client.index.chunk_ids())
    dataset_bytes = sum(len(v) for v in files.values())
    print(f"dataset: {len(files)} sample-files in {n_chunks} chunks "
          f"({dataset_bytes / 1024:.0f} KiB)")

    group_size = 4
    client.enable_shuffle(group_size=group_size)

    # --- 1+2: read an epoch in chunk-wise order, tracking the working set
    plan = client.epoch_file_list(seed=0)
    grouping = client.index.files_by_chunk()
    print(f"epoch plan: {len(plan.groups)} groups of <= {group_size} chunks; "
          f"same-chunk adjacency {chunk_adjacency(plan.files, grouping):.2f} "
          f"(sequential would be ~0.97)")

    peak_ws = 0

    def read_epoch():
        nonlocal peak_ws
        for path in plan.files:
            yield from client.get(path)
            peak_ws = max(peak_ws, client.working_set_bytes())

    tb.run(read_epoch())
    print(f"reads: {client.stats.local_hits} from the group cache, "
          f"{client.stats.server_reads} chunk fetches from storage")
    print(f"peak working set: {peak_ws / 1024:.0f} KiB "
          f"({peak_ws / dataset_bytes:.1%} of the dataset) — the paper's "
          f"ImageNet run needed ~2 GB for a 150 GB dataset")

    # --- 3: accuracy parity with full shuffle ---------------------------
    paths_sorted = sorted(files)
    index_of = {p: i for i, p in enumerate(paths_sorted)}
    X = np.stack([decode_sample(files[p])[0] for p in paths_sorted])
    y = np.asarray([decode_sample(files[p])[1] for p in paths_sorted])

    def train_model(order_fn, epochs=25):
        clf = SoftmaxClassifier(X.shape[1], 10, lr=0.1, seed=1)
        for epoch in range(epochs):
            order = order_fn(epoch)
            clf.train_epoch(X, y, order, batch_size=32)
        return top_k_accuracy(clf.scores(test.X), test.y, 1)

    def chunkwise_order(epoch):
        plan = client.epoch_file_list(seed=100 + epoch)
        return [index_of[p] for p in plan.files]

    def full_order(epoch):
        rng = random.Random(200 + epoch)
        order = list(range(len(y)))
        rng.shuffle(order)
        return order

    acc_cw = train_model(chunkwise_order)
    acc_full = train_model(full_order)
    print(f"\ntop-1 accuracy after 25 epochs: chunk-wise {acc_cw:.3f} "
          f"vs full shuffle {acc_full:.3f} (delta {acc_cw - acc_full:+.3f})")


if __name__ == "__main__":
    main()
