"""The four closed-loop workloads.

Each workload splits its timed phase into equal *blocks* (one epoch or
one ingest round, each driven by its own ``env.run``) so the host clock
can be read between them.  Block 0 carries task start (register +
warm-up, or the first round and snapshot load) and is reported apart.

A workload touches the program only through its public API; every op
goes through :meth:`OpLog.timed`, the benchmark-side proxy that times it
on the sim clock and checks the bytes against the generated inputs.
``make_inputs`` is the benchmark's own work and is excluded from
``setup_s``; ``setup`` is program calls only.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.bench.setups import (
    Testbed,
    add_diesel,
    bulk_load_diesel,
    diesel_client_with_snapshot,
    make_testbed,
)
from repro.calibration import ModelProfile
from repro.cluster.node import Node
from repro.core.client import DieselClient
from repro.core.config import DieselConfig
from repro.core.shared_cache import SharedCacheRegistry
from repro.core.shuffle import chunkwise_shuffle
from repro.dlt.sweep import build_sweep_task, register_sweep
from repro.dlt.trainer import TrainingResult, run_task_training
from repro.workloads.datasets import DatasetSpec
from repro.workloads.filegen import generate_file

KIB = 1024
MIB = 1024 * KIB


def make_dataset(
    name: str, n_files: int, mean_bytes: int, seed: int
) -> Dict[str, bytes]:
    """path -> self-verifying content, sizes lognormal (sigma 0.35)."""
    spec = DatasetSpec(
        name, n_files=n_files, mean_file_bytes=mean_bytes,
        n_classes=min(100, n_files), seed=seed,
    )
    sizes = spec.sizes()
    return {
        spec.path_of(i): generate_file(spec.path_of(i), int(sizes[i]), seed)
        for i in range(n_files)
    }


class ProxyReader:
    """Benchmark-side proxy around a ``dlt`` reader: times and verifies
    every ``read`` and maps the block's epoch 0 onto ``first_epoch``."""

    def __init__(self, inner, log, files: Dict[str, bytes],
                 first_epoch: int) -> None:
        self.inner = inner
        self.log = log
        self.files = files
        self.first_epoch = first_epoch

    def begin_epoch(self, epoch: int):
        return self.inner.begin_epoch(self.first_epoch + epoch)

    def read(self, path: str):
        return self.log.timed(self.inner.read(path), expect=self.files[path])


class Workload:
    """Shared shape; subclasses fill in sizes, set-up and blocks."""

    name = ""
    dataset = "ds"
    #: Every block after block 0 does the same amount of the same work,
    #: so the host clock may be given extra blocks.
    stationary = True
    #: The op proxy runs one reference loop after every this many ops
    #: (about every 0.3 ms of CPU).
    ops_per_loop = 8
    #: Per-scale sizing; ``blocks`` counts block 0.
    SCALES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.p = self.SCALES[scale]
        self.n_blocks: int = self.p["blocks"]
        self.files: Dict[str, bytes] = {}
        self.tb: Testbed | None = None
        # What the layer readers (perfbench.layers) look at.
        self.clients: List[DieselClient] = []
        self.caches: list = []
        self.registry: SharedCacheRegistry | None = None
        self.readers: list = []
        self.training: List[TrainingResult] = []
        self.warmup_sim_s = 0.0

    # -- inputs and fixture ------------------------------------------------
    def make_inputs(self) -> None:
        self.files = make_dataset(
            self.dataset, self.p["files"], self.p["mean_bytes"], self.seed
        )

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the fixture so the next set-up pass starts clean."""
        self.tb = None
        self.clients, self.caches, self.readers = [], [], []
        self.registry = None

    # -- timed phase -------------------------------------------------------
    def run_block(self, b: int, log) -> None:
        raise NotImplementedError

    def finish(self, log) -> None:
        """Post-phase verification (outside the gated figures)."""

    def probe(self, path: str):
        """One op on ``path`` through the workload's normal read path."""
        raise NotImplementedError

    def _run(self, gens) -> list:
        env = self.tb.env
        procs = [env.process(g) for g in gens]
        env.run(until=env.all_of(procs))
        return [p.value for p in procs]


class _TrainingWorkload(Workload):
    """Workloads whose blocks are ``run_task_training`` epochs."""

    model = ModelProfile("perfbench", compute_s=2e-4)
    tasks: list = []

    def teardown(self) -> None:
        super().teardown()
        self.tasks = []

    def _train_block(self, b: int, log) -> None:
        env = self.tb.env
        results = self._run(
            run_task_training(
                env,
                [ProxyReader(r, log, self.files, b) for r in task.readers],
                self.model, 1, self.p["batch"], io_workers=self.p["io_workers"],
            )
            for task in self.tasks
        )
        for per_worker in results:
            self.training.extend(per_worker)

    def probe(self, path: str):
        return self.tasks[0].readers[0].read(path)


class CachedEpoch(_TrainingWorkload):
    name = "cached_epoch"
    SCALES = {
        "full": dict(files=12_000, mean_bytes=8 * KIB, chunk=MIB, blocks=10,
                     batch=32, io_workers=2),
        "tiny": dict(files=400, mean_bytes=8 * KIB, chunk=256 * KIB,
                     blocks=3, batch=32, io_workers=2),
    }

    def setup(self) -> None:
        tb = self.tb = make_testbed(n_compute=4)
        add_diesel(tb, n_servers=1)
        bulk_load_diesel(tb, self.dataset, self.files,
                         chunk_size=self.p["chunk"])
        self.clients = [
            diesel_client_with_snapshot(
                tb, self.dataset, node, f"c{i}", rank=i)
            for i, node in enumerate(tb.compute_nodes)
        ]
        task = build_sweep_task(
            "train", tb.env, tb.fabric, tb.diesel, self.dataset,
            self.clients, group_size=4, seed=self.seed,
        )
        self.tasks = [task]
        self.caches = [task.cache]

    def run_block(self, b: int, log) -> None:
        if b:
            self._train_block(b, log)
            return
        env, task = self.tb.env, self.tasks[0]

        def start():
            yield from task.cache.register()
            yield from task.cache.wait_warm()

        t0 = env.now
        self._run([start()])
        self.warmup_sim_s = env.now - t0
        self.readers = task.make_readers()


class TieredSweep(_TrainingWorkload):
    name = "tiered_sweep"
    ops_per_loop = 5
    SCALES = {
        "full": dict(files=6_000, mean_bytes=16 * KIB, chunk=MIB, blocks=10,
                     batch=32, io_workers=2, tasks=2, nodes=4),
        "tiny": dict(files=300, mean_bytes=16 * KIB, chunk=256 * KIB,
                     blocks=3, batch=32, io_workers=2, tasks=2, nodes=4),
    }

    def setup(self) -> None:
        p = self.p
        tb = self.tb = make_testbed(n_compute=1)
        add_diesel(tb, n_servers=1)
        chunks = bulk_load_diesel(tb, self.dataset, self.files,
                                  chunk_size=p["chunk"])
        # Dataset = 4 x aggregate node RAM; the NVMe tier holds the rest.
        dataset_bytes = sum(c.data_size for c in chunks)
        ram = dataset_bytes // (4 * p["nodes"])
        nodes = [
            tb.fabric.add_node(
                Node(tb.env, f"cap{i}", memory_bytes=ram, nic_channels=8))
            for i in range(p["nodes"])
        ]
        self.registry = SharedCacheRegistry(
            tb.env, store="tiered", chunk_compression=True)
        self.tasks = []
        for t in range(p["tasks"]):
            clients = [
                diesel_client_with_snapshot(
                    tb, self.dataset, node, f"t{t}c{i}", rank=i)
                for i, node in enumerate(nodes)
            ]
            self.clients.extend(clients)
            self.tasks.append(build_sweep_task(
                f"task{t}", tb.env, tb.fabric, tb.diesel, self.dataset,
                clients, shared=self.registry, group_size=4,
                seed=self.seed + t,
            ))
        self.caches = [task.cache for task in self.tasks]

    def run_block(self, b: int, log) -> None:
        if b:
            self._train_block(b, log)
            return
        env = self.tb.env
        t0 = env.now
        self._run([register_sweep(env, self.tasks)])
        self.warmup_sim_s = env.now - t0
        for task in self.tasks:
            self.readers.extend(task.make_readers())


class StreamEpoch(Workload):
    name = "stream_epoch"
    ops_per_loop = 12
    SCALES = {
        "full": dict(files=10_000, mean_bytes=32 * KIB, chunk=4 * MIB,
                     blocks=11, nodes=4, threads=8, ssd=64 * MIB),
        "tiny": dict(files=320, mean_bytes=32 * KIB, chunk=MIB, blocks=3,
                     nodes=4, threads=8, ssd=4 * MIB),
    }
    GROUP = 4
    PREFETCH = 4

    def setup(self) -> None:
        p = self.p
        tb = self.tb = make_testbed(n_compute=p["nodes"])
        config = DieselConfig(
            chunk_size=p["chunk"], shuffle_group_size=self.GROUP,
            read_fanout=4,
        )
        add_diesel(tb, n_servers=2, config=config, tiered=True,
                   ssd_cache_bytes=p["ssd"])
        bulk_load_diesel(tb, self.dataset, self.files,
                         chunk_size=p["chunk"])
        self.clients = [
            diesel_client_with_snapshot(
                tb, self.dataset, node, f"c{i}", rank=i, config=config)
            for i, node in enumerate(tb.compute_nodes)
        ]
        for client in self.clients:
            client.enable_shuffle(self.GROUP)

    def run_block(self, b: int, log) -> None:
        # One task-wide chunk-wise plan per epoch, dealt to the nodes;
        # each node's client prefetches its own shard while its reader
        # threads walk it together.
        rng = random.Random(self.seed * 1_000_003 + b)
        plan = chunkwise_shuffle(
            self.clients[0].index.files_by_chunk(), self.GROUP, rng)
        shards = plan.partition(len(self.clients), rng)
        threads = self.p["threads"]

        def reader(client, paths):
            for path in paths:
                yield from log.timed(client.get(path),
                                     expect=self.files[path])

        gens = []
        for client, shard in zip(self.clients, shards):
            client.start_prefetch(shard, depth=self.PREFETCH)
            gens.extend(
                reader(client, shard.files[t::threads])
                for t in range(threads)
            )
        self._run(gens)

    def probe(self, path: str):
        return self.clients[0].get(path)


class IngestMeta(Workload):
    name = "ingest_meta"
    #: Every round finds a bigger namespace than the last.
    stationary = False
    ops_per_loop = 6
    SCALES = {
        "full": dict(pool=8_192, mean_bytes=4 * KIB, chunk=MIB, blocks=12,
                     writers=4, per_writer=2_000, dirs=10, stats=400,
                     deletes=100),
        "tiny": dict(pool=512, mean_bytes=4 * KIB, chunk=256 * KIB, blocks=3,
                     writers=4, per_writer=100, dirs=4, stats=40,
                     deletes=10),
    }

    def make_inputs(self) -> None:
        # Every round writes new paths; their payloads rotate through one
        # seed-derived pool so twelve rounds do not need twelve datasets.
        pool = make_dataset("pool", self.p["pool"], self.p["mean_bytes"],
                            self.seed)
        self.pool = list(pool.values())
        self.rotation = 2 * random.Random(self.seed).randrange(
            1, self.p["pool"] // 2) + 1
        #: The dict model: path -> payload of every live (not deleted) file.
        self.files = {}
        self.deleted: List[str] = []

    def round_files(self, r: int) -> List[List[tuple]]:
        """Per writer, the (path, payload) list of round ``r``."""
        p = self.p
        out = []
        for w in range(p["writers"]):
            items = []
            for j in range(p["per_writer"]):
                g = w * p["per_writer"] + j
                path = f"/r{r:03d}/d{g % p['dirs']}/w{w}f{j:05d}.bin"
                payload = self.pool[(g + r * self.rotation) % len(self.pool)]
                items.append((path, payload))
            out.append(items)
        return out

    def setup(self) -> None:
        p = self.p
        tb = self.tb = make_testbed(n_compute=p["writers"] + 1)
        config = DieselConfig(chunk_size=p["chunk"], ingest_pipeline_depth=4)
        add_diesel(tb, n_servers=2, config=config)

        def client(node, name, rank):
            return DieselClient(
                tb.env, node, tb.diesel_servers, self.dataset, name=name,
                rank=rank, config=config, calibration=tb.cal)

        self.writers = [
            client(tb.compute_nodes[w], f"w{w}", w)
            for w in range(p["writers"])
        ]
        meta_node = tb.compute_nodes[-1]
        #: Holds a snapshot and refreshes it by journal delta.
        self.snap = client(meta_node, "meta-snap", p["writers"])
        #: Loads no snapshot: its stat/ls resolve on the server.
        self.remote = client(meta_node, "meta-remote", p["writers"] + 1)
        self.clients = [*self.writers, self.snap, self.remote]

    def _writer(self, client, items, log):
        for path, payload in items:
            yield from log.timed(client.put(path, payload),
                                 nbytes=len(payload))
        yield from log.timed(client.flush())

    def _meta(self, prev: List[List[tuple]], r: int, log, writers_done):
        p = self.p
        rng = random.Random(self.seed * 7_919 + r)
        flat = [item for items in prev for item in items]
        index = yield from log.timed(self.snap.refresh_meta())
        sample = rng.sample(flat, 16)
        log.check(lambda: (
            all(index.lookup(path).length == len(data)
                for path, data in sample)
            and not any(path in index for path in self.deleted[-16:])
        ))
        names: Dict[str, List[str]] = {}
        for path, _ in flat:
            parent, _, name = path.rpartition("/")
            names.setdefault(parent, []).append(name)
        for parent in sorted(names):
            yield from log.timed(self.remote.ls(parent),
                                 expect=sorted(names[parent]))
        for path, data in rng.sample(flat, p["stats"]):
            st = yield from log.timed(self.remote.stat(path))
            log.check(lambda: st["size"] == len(data) and not st["is_dir"])
        # Deletes wait for this round's ingests: the server's delete_file
        # rewrites the dataset record it read before its device write, so
        # a chunk ingested in between drops out of the record (a defect
        # this benchmark found; a workload must not have failing ops).
        yield writers_done
        # Consecutive files of one writer share a chunk, so the purge at
        # the end rewrites a few chunks per round, not all of them.
        items = prev[rng.randrange(len(prev))]
        start = rng.randrange(len(items) - p["deletes"])
        for path, _ in items[start:start + p["deletes"]]:
            yield from log.timed(self.remote.delete(path))
            del self.files[path]
            self.deleted.append(path)

    def run_block(self, b: int, log) -> None:
        env = self.tb.env
        rounds = self.round_files(b)
        procs = [env.process(self._writer(c, items, log))
                 for c, items in zip(self.writers, rounds)]
        if b:
            procs.append(env.process(
                self._meta(self.prev_round, b, log, env.all_of(procs))))
        env.run(until=env.all_of(procs))
        if not b:
            def load():
                blob = yield from self.snap.save_meta()
                yield from self.snap.load_meta(blob)

            self._run([load()])
        for items in rounds:
            self.files.update(items)
        self.prev_round = rounds

    def finish(self, log) -> None:
        tb = self.tb
        fresh = DieselClient(
            tb.env, tb.compute_nodes[-1], tb.diesel_servers, self.dataset,
            name="verify", config=self.snap.config, calibration=tb.cal)

        def verify():
            yield from fresh.purge()
            blob = yield from fresh.save_meta()
            index = yield from fresh.load_meta(blob)
            log.check(lambda: index.file_count == len(self.files))
            log.check(
                lambda: not any(path in index for path in self.deleted))
            # In write order a sample's neighbours share a chunk, so the
            # client's group cache serves most of the read-back.
            fresh.enable_shuffle(1)
            for path in list(self.files)[::16]:
                yield from log.timed(fresh.get(path),
                                     expect=self.files[path])

        self._run([verify()])

    def probe(self, path: str):
        return self.remote.stat(path)


WORKLOADS = {
    w.name: w for w in (CachedEpoch, StreamEpoch, TieredSweep, IngestMeta)
}
