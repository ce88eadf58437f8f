#!/usr/bin/env python3
"""DLCMD workflow: manage datasets from the command line (paper §5).

Mirrors the paper's operator workflow — "users use DLCMD (similar to
s3cmd) to store files into DIESEL; after that, the metadata snapshot can
be downloaded from a DIESEL server to local disk" — using the real CLI
entry points.  Everything persists in a workspace file whose only
contents are self-contained chunks; metadata is rebuilt from chunk
headers on every invocation (§4.1.2 exercised on every command).

Run:  python examples/dlcmd_workflow.py
"""

import tempfile
from pathlib import Path

from repro.tools import dlcmd


def sh(ws, *argv, dataset="imagenet"):
    """Run one dlcmd invocation, echoing it shell-style."""
    pretty = " ".join(argv)
    print(f"$ dlcmd -d {dataset} {pretty}")
    rc = dlcmd.main(["-w", str(ws), "-d", dataset, *argv])
    assert rc == 0, f"dlcmd exited {rc}"
    print()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ws = tmp / "demo.workspace"

        # Stage a local dataset directory to upload.
        src = tmp / "raw"
        for cls in ("cat", "dog"):
            (src / cls).mkdir(parents=True)
            for i in range(5):
                (src / cls / f"{i:03d}.jpg").write_bytes(
                    f"{cls}-{i}".encode() * 100
                )

        sh(ws, "put", str(src), "/train")
        sh(ws, "ls", "/train")
        sh(ws, "ls", "-l", "/train/cat")
        sh(ws, "stat", "/train/dog/002.jpg")

        # Fetch one file back and verify it.
        out = tmp / "fetched.jpg"
        sh(ws, "get", "/train/cat/001.jpg", str(out))
        assert out.read_bytes() == b"cat-1" * 100
        print("fetched bytes verified OK\n")

        # Export the metadata snapshot a training job would load.
        sh(ws, "save-meta", str(tmp / "imagenet.snapshot"))

        # Housekeeping: delete + purge, then confirm the hole is gone.
        sh(ws, "rm", "/train/dog/000.jpg")
        sh(ws, "purge")
        sh(ws, "info")
        sh(ws, "datasets")

        # The workspace checks: metadata against chunks, the metadata
        # plane, and where sample reads spend their time.
        sh(ws, "verify")
        sh(ws, "meta")
        sh(ws, "stats", "-n", "8")
        sh(ws, "trace", str(tmp / "reads.trace.json"), "-n", "8")

        print(f"workspace file: {ws.stat().st_size} bytes "
              f"(chunks only — metadata rebuilds from their headers)")


if __name__ == "__main__":
    main()
