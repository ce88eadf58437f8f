"""DLCMD — the dataset management command-line tool (paper §5).

"A separate command-line tool (DLCMD, similar to s3cmd in Amazon S3) is
provided to write and manage the datasets in DIESEL."

Operates on a workspace file (``--workspace``, default
``./diesel.workspace``), which persists datasets as self-contained
chunks; metadata is rebuilt from chunk headers on every open.

Subcommands::

    dlcmd put <local-file-or-dir> <diesel-path>   upload file(s)
    dlcmd get <diesel-path> <local-file>          download one file
    dlcmd ls [<diesel-dir>]                       list a directory
    dlcmd stat <diesel-path>                      file/dir metadata
    dlcmd rm <diesel-path>                        tombstone one file
    dlcmd purge                                   rewrite holey chunks
    dlcmd save-meta <local-file>                  export the snapshot
    dlcmd datasets                                list datasets
    dlcmd info                                    workspace summary
    dlcmd stats                                   per-layer read latency
    dlcmd trace <local-file>                      chrome://tracing dump
    dlcmd verify                                  metadata vs chunks check
    dlcmd meta                                    metadata-plane summary

Every data-mutating command rewrites the workspace file.

The two observability commands attach a :class:`repro.obs.SpanRecorder`
to the client, server and KV shards, replay a sample of reads, and
report where the time went — ``stats`` as an aligned per-(op, layer)
percentile table, ``trace`` as a Chrome trace-event file viewable in
``chrome://tracing`` (see docs/OBSERVABILITY.md).

Simulated-cluster scenarios (placement, shared caches, tiers, faults,
engine scale) are experiments, run by ``python -m repro.bench.runner <id>``.

Run:  python -m repro.tools.dlcmd --help
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.core.meta import DATASET_PREFIX
from repro.errors import ReproError
from repro.tools.workspace import DieselWorkspace
from repro.util.units import format_bytes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlcmd",
        description="DIESEL dataset management tool (paper §5)",
    )
    parser.add_argument(
        "--workspace", "-w", default="diesel.workspace",
        help="workspace file holding the datasets (default: %(default)s)",
    )
    parser.add_argument(
        "--dataset", "-d", default="default",
        help="dataset name to operate on (default: %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("put", help="upload a file or directory")
    p.add_argument("source", help="local file or directory")
    p.add_argument("dest", help="destination path inside the dataset")

    p = sub.add_parser("get", help="download one file")
    p.add_argument("path", help="path inside the dataset")
    p.add_argument("dest", help="local destination file")

    p = sub.add_parser("ls", help="list a directory")
    p.add_argument("path", nargs="?", default="/", help="directory to list")
    p.add_argument("-l", "--long", action="store_true",
                   help="include sizes (stat each entry)")

    p = sub.add_parser("stat", help="show one entry's metadata")
    p.add_argument("path")

    p = sub.add_parser("rm", help="delete (tombstone) one file")
    p.add_argument("path")

    sub.add_parser("purge", help="rewrite chunks with deletion holes")

    p = sub.add_parser("save-meta", help="export the metadata snapshot")
    p.add_argument("dest", help="local file for the snapshot blob")

    sub.add_parser("datasets", help="list datasets in the workspace")
    sub.add_parser("info", help="workspace summary")

    p = sub.add_parser(
        "stats", help="per-(op, layer) latency percentiles for sample reads"
    )
    p.add_argument(
        "-n", "--sample", type=int, default=32,
        help="max files to read for the measurement (default: %(default)s)",
    )

    p = sub.add_parser(
        "trace", help="write a chrome://tracing JSON of sample reads"
    )
    p.add_argument("dest", help="local output file (open in chrome://tracing)")
    p.add_argument(
        "-n", "--sample", type=int, default=32,
        help="max files to read for the trace (default: %(default)s)",
    )

    sub.add_parser(
        "verify",
        help="cross-check KV metadata against the dataset's chunks "
             "(the post-rebuild consistency check of docs/FAULTS.md)",
    )

    sub.add_parser(
        "meta",
        help="metadata-plane summary: the dataset count, plus "
             "per-dataset snapshot version and journal depth/span "
             "(see docs/METADATA.md)",
    )
    return parser


def _iter_local_files(source: Path) -> Iterable[tuple[Path, str]]:
    """(local path, relative name) pairs for a file or directory tree."""
    if source.is_file():
        yield source, source.name
        return
    for p in sorted(source.rglob("*")):
        if p.is_file():
            yield p, p.relative_to(source).as_posix()


def cmd_put(ws: DieselWorkspace, dataset: str, args) -> str:
    source = Path(args.source)
    if not source.exists():
        raise ReproError(f"no such local file or directory: {source}")
    client = ws.client(dataset)
    if source.is_file():
        items = [(args.dest, source.read_bytes())]
    else:
        items = [
            (f"{args.dest.rstrip('/')}/{rel}", local.read_bytes())
            for local, rel in _iter_local_files(source)
        ]
    client.put_many(items)
    total = sum(len(data) for _, data in items)
    return f"uploaded {len(items)} file(s), {format_bytes(total)}"


def cmd_get(ws: DieselWorkspace, dataset: str, args) -> str:
    data = ws.client(dataset).get(args.path)
    Path(args.dest).write_bytes(data)
    return f"{args.path} -> {args.dest} ({format_bytes(len(data))})"


def cmd_ls(ws: DieselWorkspace, dataset: str, args) -> str:
    client = ws.client(dataset)
    entries = client.ls(args.path)
    if not args.long:
        return "\n".join(entries) if entries else "(empty)"
    lines = []
    base = args.path.rstrip("/")
    for name in entries:
        full = name if name.startswith("/") else f"{base}/{name}"
        info = client.stat(full)
        kind = "d" if info["is_dir"] else "-"
        lines.append(f"{kind} {info['size']:>12}  {name}")
    return "\n".join(lines) if lines else "(empty)"


def cmd_stat(ws: DieselWorkspace, dataset: str, args) -> str:
    info = ws.client(dataset).stat(args.path)
    kind = "directory" if info["is_dir"] else "file"
    lines = [f"path:  {info['path']}", f"type:  {kind}",
             f"size:  {info['size']}"]
    if info.get("chunk_id"):
        lines.append(f"chunk: {info['chunk_id']}")
    return "\n".join(lines)


def cmd_rm(ws: DieselWorkspace, dataset: str, args) -> str:
    ws.client(dataset).delete(args.path)
    return f"deleted {args.path} (tombstoned; run purge to reclaim space)"


def cmd_purge(ws: DieselWorkspace, dataset: str, args) -> str:
    rewritten = ws.client(dataset).purge()
    return f"purge rewrote {rewritten} chunk(s)"


def cmd_save_meta(ws: DieselWorkspace, dataset: str, args) -> str:
    blob = ws.client(dataset).save_meta()
    Path(args.dest).write_bytes(blob)
    return f"snapshot saved to {args.dest} ({format_bytes(len(blob))})"


def cmd_datasets(ws: DieselWorkspace, dataset: str, args) -> str:
    names = ws.datasets()
    return "\n".join(names) if names else "(no datasets)"


def cmd_info(ws: DieselWorkspace, dataset: str, args) -> str:
    store = ws.tb.store
    lines = [
        f"datasets:     {len(ws.datasets())} ({', '.join(ws.datasets()) or '-'})",
        f"chunks:       {len(store)}",
        f"chunk bytes:  {format_bytes(store.size_bytes())}",
        f"kv pairs:     {ws.tb.kv.total_keys()}",
    ]
    return "\n".join(lines)


def _traced_sample_reads(ws: DieselWorkspace, dataset: str, limit: int):
    """Attach a recorder, replay a strided sample of reads, return it.

    The shared measurement behind ``stats`` and ``trace``: every file in
    the sample goes through the per-file ``DL_get`` path, then one
    batched ``get_many`` exercises the scatter-gather path.
    """
    from repro.obs import SpanRecorder

    if limit < 1:
        raise ReproError("--sample must be >= 1")
    sync = ws.client(dataset)
    recorder = SpanRecorder.attach(sync.client, ws.server)
    index = sync.load_meta(sync.save_meta())
    paths = index.all_paths()
    if not paths:
        raise ReproError(f"dataset {dataset!r} has no files to sample")
    stride = max(1, len(paths) // limit)
    sample = paths[::stride][:limit]
    for path in sample:
        sync.get(path)
    if len(sample) > 1:
        sync.get_many(sample)
    return recorder


def cmd_stats(ws: DieselWorkspace, dataset: str, args) -> str:
    return _traced_sample_reads(ws, dataset, args.sample).summary()


def cmd_trace(ws: DieselWorkspace, dataset: str, args) -> str:
    from repro.obs import write_chrome_trace

    recorder = _traced_sample_reads(ws, dataset, args.sample)
    n = write_chrome_trace(recorder, args.dest)
    return (
        f"wrote {n} trace events to {args.dest} "
        "(load via chrome://tracing or https://ui.perfetto.dev)"
    )


def cmd_verify(ws: DieselWorkspace, dataset: str, args) -> str:
    """Check every indexed file resolves through the KV metadata.

    The expectations come from the chunk headers themselves (the
    workspace re-reads them on open), so this catches KV drift — the
    check `recovery.verify_rebuild` runs after a shard rebuild, exposed
    as a standalone command for operators.
    """
    from repro.core.recovery import verify_rebuild

    sync = ws.client(dataset)
    index = sync.load_meta(sync.save_meta())
    expected = {
        path: index.lookup(path).length for path in index.all_paths()
    }
    if not expected:
        raise ReproError(f"dataset {dataset!r} has no files to verify")
    problems = verify_rebuild(ws.server, dataset, expected)
    if problems:
        raise ReproError(
            f"metadata inconsistent ({len(problems)} problems):\n  "
            + "\n  ".join(problems)
        )
    return f"metadata consistent: {len(expected)} files verified, 0 problems"


def cmd_meta(ws: DieselWorkspace, dataset: str, args) -> str:
    """Metadata-plane summary: dataset count, journal, snapshot versions.

    Reads the same counters the ``metaplane`` experiment asserts on —
    how many dataset records the KV holds, per-dataset snapshot version
    (``update_ts``), and retained journal depth and version span (what
    a delta ``refresh_meta`` can span before falling back to a full
    reload).
    """
    server = ws.server
    lines = [
        f"registry:         {server.kv.local_pcount(DATASET_PREFIX)} "
        f"dataset(s)",
        f"journal horizon:  {server.journal.horizon} "
        f"version(s) retained per dataset",
    ]
    names = server.datasets()
    if not names:
        lines.append("(no datasets)")
        return "\n".join(lines)
    lines.append(f"{'dataset':<16} {'version':>8} {'depth':>6}  span")
    for name in names:
        version = server.dataset_info(name).update_ts
        depth = server.journal.depth(name)
        span = server.journal.span(name)
        span_s = f"v{span[0]}..v{span[1]}" if span else "-"
        lines.append(f"{name:<16} {version:>8} {depth:>6}  {span_s}")
    return "\n".join(lines)


_COMMANDS = {
    "put": (cmd_put, True),
    "get": (cmd_get, False),
    "ls": (cmd_ls, False),
    "stat": (cmd_stat, False),
    "rm": (cmd_rm, True),
    "purge": (cmd_purge, True),
    "save-meta": (cmd_save_meta, False),
    "datasets": (cmd_datasets, False),
    "info": (cmd_info, False),
    "stats": (cmd_stats, False),
    "trace": (cmd_trace, False),
    "verify": (cmd_verify, False),
    "meta": (cmd_meta, False),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler, mutates = _COMMANDS[args.command]
    try:
        ws = DieselWorkspace.open(args.workspace)
        message = handler(ws, args.dataset, args)
        if mutates:
            ws.save(args.workspace)
    except (ReproError, FileNotFoundError) as exc:
        print(f"dlcmd: error: {exc}", file=sys.stderr)
        return 1
    print(message)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
