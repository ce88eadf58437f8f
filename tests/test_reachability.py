"""The reachability rule: a def in ``src/repro`` has a caller outside
``tests/`` — or it is on the keep-list below, with its reason.

An AST fixpoint.  Roots are the whole of ``perfbench/ scripts/
benchmarks/ examples/`` plus the module-level statements of ``src/repro``
(package ``__init__`` re-exports excluded: importing a name to re-export
it is not calling it).  A def is live once live code *mentions* its name
— as a ``Name``, an ``Attribute``, an imported name or an
identifier-shaped string, so perfbench's by-name proxies count as
callers; behind ``getattr(self, "_op_" + method)`` dispatch an
``_op_<m>`` is live once live code names ``"<m>"`` — and a live def's
own body then counts as live code.  A method is live only if
its class is; dunder methods come with their class.  Matching is by bare
name, so the walk errs towards keeping.  A kept def's body counts as
live code too: what a kept verb calls (the server side of a Table 3
call) stays with it.

The keep-list is closed: (i) the paper's client surface, (ii) reference
implementations and invariant probes tests compare against, (iii) the
task-lifecycle and fault-injection verbs, (iv) figures the next
benchmark is specified to report.  A stale entry (gone, or reached by
now) fails too, so the list can only shrink.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("perfbench", "scripts", "benchmarks", "examples")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

KEEP = {
    # (i) the paper's client surface: Table 3 and the §5 FUSE facade
    "DieselClient.put_overwrite": "(i) Table 3 modify (§4.1.1 delete-then-write)",
    "DieselClient.delete_dataset": "(i) Table 3 DL_delete_dataset",
    "SyncDieselClient.delete_dataset": "(i) Table 3, blocking facade",
    "FuseMount.unmount": "(i) §5 FUSE management API",
    "FuseFile.seek": "(i) §5 POSIX file handle",
    "FuseFile.pread": "(i) §5 POSIX file handle",
    # (ii) reference implementations and invariant probes
    "directory_entry_pairs": "(ii) per-file oracle of ingest_metadata (PR 20)",
    "DatasetRecord.with_chunks": "(ii) oracle of the O(1) dataset-record splice",
    "TieredStore.in_ssd": "(ii) residency probe of the server cache tier",
    "TieredStore.ssd_used_bytes": "(ii) Σ resident ≤ capacity invariant",
    "SharedChunkCache.refcount": "(ii) pin-count invariant of the shared tier",
    "Chunk.is_deleted": "(ii) tombstone probe of the chunk codec",
    "Chunk.deleted_count": "(ii) bitmap/record consistency probe",
    "Semaphore.queue_length": "(ii) bounded-wait-queue probe (no pinned waiters)",
    "verify_file": "(ii) embedded-CRC read-back check of generated payloads",
    "run_sync": "(ii) the driver every differential test runs both sides with",
    # (iii) task-lifecycle and fault-injection verbs (ROADMAP item 2)
    "TaskCache.deregister": "(iii) teardown half of the _retire lifetime rule",
    "FailureInjector.restore_at": "(iii) fault injection",
    "FailureInjector.kill_now": "(iii) fault injection",
    "FailureInjector.on_trigger": "(iii) fault injection",
    "ChaosSchedule.slow_node": "(iii) fault injection",
    "ChaosSchedule.latency_spikes": "(iii) fault injection",
    "ShardedKV.lose_instance": "(iii) fault injection",
    # (iv) the next benchmark's figure (ROADMAP item 3a)
    "shuffle_quality": "(iv) ROADMAP item 3a names it as the figure to report",
}


def _mentions(nodes):
    out = set()
    for top in nodes:
        for n in ast.walk(top):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                for a in n.names:
                    out.update(a.name.split("."))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                if _IDENT.match(n.value):
                    out.add(n.value)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "getattr" and len(n.args) > 1
                  and isinstance(n.args[1], ast.BinOp)
                  and isinstance(n.args[1].left, ast.Constant)):
                # getattr(self, "_op_" + method) reaches "_op_<m>" once
                # live code names "<m>"
                out.add(str(n.args[1].left.value) + "*")
    return out


class _Def:
    def __init__(self, node, owner):
        self.owner = owner
        self.name = node.name
        self.qual = f"{owner.name}.{node.name}" if owner else node.name
        if isinstance(node, ast.ClassDef):
            # a class's own code: bases, decorators, class-level statements
            own = [*node.bases, *node.decorator_list,
                   *(s for s in node.body if not isinstance(s, _DEF))]
        else:
            own = [node]
        self.mentions = _mentions(own)


def unreached(keep=()):
    """Qualified names of the defs in ``src/repro`` nothing live — nor
    any def named in ``keep`` — reaches."""
    defs, names = [], set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        toplevel = []
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, _DEF):
                toplevel.append(stmt)
                continue
            d = _Def(stmt, None)
            defs.append(d)
            if isinstance(stmt, ast.ClassDef):
                defs += [_Def(s, d) for s in stmt.body if isinstance(s, _DEF)]
        if path.name != "__init__.py":
            names |= _mentions(toplevel)
    for caller in CALLER_DIRS:
        for path in sorted((ROOT / caller).rglob("*.py")):
            names |= _mentions([ast.parse(path.read_text())])
    live, grew = set(), True
    while grew:
        grew = False
        prefixes = tuple(p[:-1] for p in names if p.endswith("*"))
        for d in defs:
            if d in live or (d.owner is not None and d.owner not in live):
                continue
            dunder = d.owner is not None and d.name.startswith("__")
            dispatched = any(
                d.name.startswith(p) and d.name[len(p):] in names
                for p in prefixes
            )
            if d.name in names or dunder or dispatched or d.qual in keep:
                live.add(d)
                names |= d.mentions
                grew = True
    # a dead class stands for its methods
    return {d.qual for d in defs
            if d not in live and (d.owner is None or d.owner in live)}


def test_every_def_is_reached_or_kept_with_a_reason():
    assert sorted(unreached(KEEP)) == [], (
        "no caller outside tests/: delete these (with the tests that check "
        "only them) or give them a caller"
    )
    assert sorted(set(KEEP) - unreached()) == [], (
        "stale keep-list entries (deleted, or reached by now): remove them"
    )


def test_keep_list_is_small_and_reasoned():
    assert len(KEEP) <= 40
    for name, reason in KEEP.items():
        assert re.match(r"\((i|ii|iii|iv)\) \S", reason), name
