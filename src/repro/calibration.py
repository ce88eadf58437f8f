"""Cost-model calibration constants for the DIESEL reproduction.

Every constant in this module is fitted to a measurement reported in the
paper (Wang et al., ICPP 2020) and is annotated with its provenance.  The
simulation substrate (:mod:`repro.sim`, :mod:`repro.cluster`) consumes
these numbers; the experiments in :mod:`repro.bench` then validate the
*emergent* shapes — scaling curves, saturation points, crossovers and
failure responses — which are not directly encoded anywhere.

Units: seconds, bytes, operations/second unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


@dataclass(frozen=True)
class NvmeProfile:
    """NVMe-SSD storage-cluster read profile.

    Fitted to Table 2 of the paper: a single stream on the six-machine
    SSD-backed storage cluster.  With ``t(size) = per_op + size/bandwidth``
    the reproduction matches all seven rows of Table 2 within ~10 %:

    ==========  ===============  =================
    file size   paper files/s    model files/s
    ==========  ===============  =================
    1 KB        34 353           ~34 500
    4 KB        32 841           ~33 200
    64 KB       21 073           ~21 400
    1 MB        3 104            ~3 000
    4 MB        799              ~790
    ==========  ===============  =================
    """

    #: Fixed per-operation overhead (submission, NVMe command, interrupt).
    per_op_s: float = 27.7e-6
    #: Streaming bandwidth of the storage cluster for one client stream.
    bandwidth_bps: float = 3.30 * GB
    #: Concurrent full-rate streams the pool sustains.  4 × 3.3 GiB/s
    #: ≈ 13 GiB/s aggregate, consistent with the ~10 GB/s object-storage
    #: read ceiling visible in Fig 12's 128 KB DIESEL numbers.
    queue_depth: int = 4


@dataclass(frozen=True)
class HddProfile:
    """HDD-backed (slow tier) storage profile.

    The paper does not benchmark the HDD tier directly; we use a
    conventional 7.2k-RPM array profile (seek-dominated small reads,
    ~180 MB/s streaming per spindle aggregated over the array).
    """

    per_op_s: float = 6e-3
    bandwidth_bps: float = 1.0 * GB
    queue_depth: int = 16


@dataclass(frozen=True)
class NetworkProfile:
    """100 Gb/s InfiniBand fabric (Table 4).

    Latency is the one-way small-message latency of IB verbs through a
    userspace RPC stack (Thrift in the paper adds serialization cost,
    modelled separately in :data:`RpcProfile`).
    """

    bandwidth_bps: float = 100e9 / 8  # 12.5 GB/s
    latency_s: float = 5e-6


@dataclass(frozen=True)
class RpcProfile:
    """Thrift-like RPC layer cost model.

    ``per_call_s`` covers serialization + syscall + dispatch on top of raw
    network latency.  Fitted so a single memcached-style get of a 4 KB
    value costs ~50 µs end to end, consistent with the Memcached cluster
    read ceiling in §6.4 (~560 k QPS over 10 nodes with 16 threads each).
    """

    per_call_s: float = 12e-6
    per_byte_s: float = 1.0 / (8 * GB)  # serialization memcpy cost


@dataclass(frozen=True)
class LustreProfile:
    """Lustre baseline cost model (§2.2, §6).

    * ``mds_qps``: the paper measures ~68 000 QPS on the Lustre MDS
      (§6.3, metadata-snapshot comparison); ``mds_latency_s`` is the
      unloaded round-trip service latency.
    * **Random small reads are op-limited**, not bandwidth-limited:
      Fig 12 reports 15.4 k files/s at 4 KB *and* 15.6 k files/s at
      128 KB — both ≈ 1/64 µs — so the OSS random-read path is modelled
      as a nearly serial station (``oss_queue_depth=1``) with
      ``oss_per_op_s ≈ 62 µs`` (DLM locking + RPC + readahead miss) and a
      high stream bandwidth so the size term stays secondary.
    * **Writes amplify**: Fig 9's ~5.7 k 4 KB creates/s (2 M / 366.7)
      implies ~175 µs per create on the data path ⇒
      ``write_amplification ≈ 2.8`` on top of the read op cost
      (journal + lock + OST object create).
    * ``stat_extra_rpcs``: ``ls -lR`` needs file sizes, which live on the
      OSS, so a stat costs extra RPCs (Fig 10c: 170 s vs 35 s for 1.28 M
      files).
    """

    mds_qps: float = 68_000.0
    mds_latency_s: float = 50e-6
    #: MDS operations consumed by creating one file (lookup+create+lock).
    create_mds_ops: float = 2.0
    #: MDS operations consumed by opening one file for read.
    open_mds_ops: float = 1.0
    #: Extra OSS round trips for a full stat (size lives on the OSS).
    stat_extra_rpcs: int = 1
    #: OSS random-small-IO path: nearly serial, op-dominated (see above).
    oss_per_op_s: float = 62e-6
    oss_bandwidth_bps: float = 8.0 * GB
    oss_queue_depth: int = 1
    #: Multiplier on oss_per_op_s for file creation/write ops.
    write_amplification: float = 2.8
    #: Client-side POSIX/locking overhead per file operation.
    client_posix_s: float = 25e-6


@dataclass(frozen=True)
class MemcachedProfile:
    """Memcached + Twemproxy baseline cost model (§6.1, §6.4).

    Fitted to the paper's cluster: each node runs one 16-thread memcached
    server and eight twemproxy instances.

    * **Reads**: the cluster read ceiling is ~56 k QPS per node (560 k at
      10 nodes, Fig 11a) with ~50 µs unloaded GET latency.
    * **Writes**: libMemcached has no batch mode (one RPC per SET), but
      twemproxy pipelines concurrent clients, so the write ceiling is
      higher than reads.  Fig 9 implies ~1.1 M 4 KB SETs/s over 64 procs
      (≈54 µs/SET/client) and ~37 k 128 KB SETs/s (≈1.7 ms/SET/client)
      ⇒ a client-side serialization cost of ~13 ns/byte through the
      proxy path dominates large values.
    """

    server_qps: float = 56_000.0
    latency_s: float = 50e-6
    proxy_extra_s: float = 8e-6
    #: Server-side value copy cost (small; proxies bear the real cost).
    per_byte_s: float = 1.0 / (16 * GB)
    #: Client-side SET marshalling through libMemcached + twemproxy.
    write_per_op_s: float = 25e-6
    write_per_byte_s: float = 13e-9
    #: SET service is cheaper than GET at the server (pipelined).
    write_speedup: float = 6.0


@dataclass(frozen=True)
class RedisProfile:
    """Redis-cluster metadata store (§6.1, §6.3).

    The paper's 16-instance Redis cluster saturates at ~0.97 M QPS
    (measured with memtier_benchmark).  The server charges its KV work
    at that aggregate rate (``DieselServer._kv_pipeline_cost``).
    """

    cluster_qps: float = 970_000.0
    instances: int = 16


@dataclass(frozen=True)
class DieselProfile:
    """DIESEL server/client cost model (§6.3, §6.4).

    * ``server_meta_qps``: one DIESEL server's metadata-proxy capacity.
      Fig 10a: one server flattens the client-scaling curve at ~2 client
      nodes, three servers at ~7 nodes, five servers approach the Redis
      cap (0.97 M QPS) — consistent with ~0.21 M QPS per server and
      ~0.10 M QPS of demand per 16-thread client node.
    * ``client_meta_lookup_s``: local snapshot (hashmap) lookup cost.
      Fig 10b: 8.83 M QPS per 16-thread node ⇒ ~1.81 µs per lookup.
    * ``metadata_think_s``: client-side POSIX + framework overhead per
      *remote* metadata call, making per-node demand ≈ 0.1 M QPS as the
      Fig 10a flattening points imply.
    * ``api_read_overhead_s``: per-request client-side cost of a 4 KB
      read via the task-grained cache (Fig 11a: 1.2 M QPS over 160
      clients ⇒ ~133 µs per op end to end; the remainder beyond
      RPC+network is this constant).
    * ``client_put_overhead_s`` / ``client_put_per_byte_s``: DL_put's
      client-side packing cost.  Fig 9: 2 M 4 KB files/s over 64 procs ⇒
      ~31 k files/s/proc ⇒ ~30 µs per small file.
    * ``fuse_overhead_s``: extra kernel-crossing + context-switch cost per
      FUSE call.  Fig 11a: FUSE achieves ~2/3 of API throughput.
    """

    server_meta_qps: float = 210_000.0
    server_meta_latency_s: float = 40e-6
    client_meta_lookup_s: float = 1.81e-6
    metadata_think_s: float = 85e-6
    api_read_overhead_s: float = 65e-6
    fuse_overhead_s: float = 65e-6
    client_put_overhead_s: float = 22e-6
    client_put_per_byte_s: float = 1.0 / (3 * GB)
    #: Replicated-journal ack bandwidth for chunk ingest (write-back to
    #: NVMe happens in the background); sized so the six-machine array
    #: absorbs Fig 9's burst writes, as the paper's 3-second ImageNet
    #: load implies (~50 GB/s aggregate).
    ingest_journal_bps: float = 24 * GB
    #: Per-peer-hop cost of fetching a file from a remote master client.
    peer_fetch_overhead_s: float = 18e-6


@dataclass(frozen=True)
class FuseProfile:
    """FUSE kernel-userspace redirection model (§5, Vangoor FAST'17).

    The kernel splits large reads into ``max_read``-sized requests and
    forwards each to the userspace daemon; every crossing costs
    ``crossing_s``.
    """

    crossing_s: float = 9e-6
    max_read_bytes: int = 128 * KB


@dataclass(frozen=True)
class ModelProfile:
    """Per-iteration GPU compute time and IO demand of one training model.

    ``compute_s`` is the per-iteration forward+backward time on the
    paper's 4-node × 8×V100 setup with per-GPU batch 32 (global batch
    256 for ResNet-50's 5005 iterations/epoch on ImageNet-1K).  Values
    are representative of V100 FP32 throughput for each architecture —
    the paper reports total times of 37–66 h over 90 epochs across the
    four models, which these profiles land inside.
    """

    name: str
    compute_s: float
    batch_size: int = 256


#: Fig 14/15 model zoo.  AlexNet is the lightest (most IO-bound), ResNet-50
#: the heaviest (most compute-bound).
MODEL_ZOO: dict[str, ModelProfile] = {
    "alexnet": ModelProfile("alexnet", compute_s=0.110),
    "vgg11": ModelProfile("vgg11", compute_s=0.160),
    "resnet18": ModelProfile("resnet18", compute_s=0.140),
    "resnet50": ModelProfile("resnet50", compute_s=0.230),
}


@dataclass(frozen=True)
class Calibration:
    """Aggregate calibration bundle threaded through experiment builders."""

    nvme: NvmeProfile = field(default_factory=NvmeProfile)
    hdd: HddProfile = field(default_factory=HddProfile)
    network: NetworkProfile = field(default_factory=NetworkProfile)
    rpc: RpcProfile = field(default_factory=RpcProfile)
    lustre: LustreProfile = field(default_factory=LustreProfile)
    memcached: MemcachedProfile = field(default_factory=MemcachedProfile)
    redis: RedisProfile = field(default_factory=RedisProfile)
    diesel: DieselProfile = field(default_factory=DieselProfile)
    fuse: FuseProfile = field(default_factory=FuseProfile)


#: Default calibration used by every experiment unless overridden.
DEFAULT = Calibration()
