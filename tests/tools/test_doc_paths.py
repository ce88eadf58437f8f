"""The docs name only repo files that exist.

Every inline code span in ``README.md``, ``DESIGN.md``,
``CONTRIBUTING.md`` and ``docs/*.md`` is searched for repo paths under
``benchmarks/``, ``src/``, ``scripts/`` or ``tests/`` (a ``::test`` or
``:line`` suffix is dropped, a ``*`` is a glob, a ``<placeholder>`` is
skipped); each must exist.  A span that is a bare ``name.py`` must name
some file in the repo.  A dotted ``repro.…`` name in a span must
resolve: its longest importable module prefix, then ``getattr`` for the
rest.  ``CHANGES.md``, ``EXPERIMENTS.md`` and ``ROADMAP.md`` are history
and are skipped.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "CONTRIBUTING.md",
        *sorted((ROOT / "docs").glob("*.md"))]

_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
_PATH = re.compile(r"(?:^|(?<=[\s(]))((?:benchmarks|src|scripts|tests)/[^\s:`,)]*)")
_BARE = re.compile(r"[\w.-]+\.py")
_DOTTED = re.compile(r"(?<![\w./])repro(?:\.\w+)+")


def missing(text, py_names):
    """Repo paths and bare ``*.py`` names in ``text``'s code spans that
    name nothing."""
    found = []
    for span in _SPAN.findall(text):
        if _BARE.fullmatch(span.strip()):
            if span.strip() not in py_names:
                found.append(span.strip())
            continue
        for path in _PATH.findall(span):
            if "<" in path:
                continue
            if not (any(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()):
                found.append(path)
    return found


def resolves(name):
    """Whether the dotted ``repro.…`` ``name`` names a module or an
    attribute reachable from one."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        module = ".".join(parts[:i])
        try:
            obj = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if not module.startswith(exc.name or "\0"):
                raise  # a real module whose own import failed
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def unresolved(text):
    """Dotted ``repro.…`` names in ``text``'s code spans that name
    nothing."""
    return [name for span in _SPAN.findall(text)
            for name in _DOTTED.findall(span) if not resolves(name)]


def repo_py_names():
    return {p.name for p in ROOT.rglob("*.py") if ".git" not in p.parts}


def test_docs_name_only_files_that_exist():
    names = repo_py_names()
    problems = [f"{doc.name}: {path}" for doc in DOCS
                for path in missing(doc.read_text(), names)]
    assert problems == []


def test_a_deleted_file_is_caught():
    names = repo_py_names()
    text = ("run `tests/bench/test_gone.py::test_x` or "
            "`python scripts/gone.py --all`, see `gone_module.py`; "
            "`tests/bench/test_runner.py`, `benchmarks/bench_*.py`, "
            "`tests/<package>/` and `runner.py` exist")
    assert missing(text, names) == [
        "tests/bench/test_gone.py", "scripts/gone.py", "gone_module.py",
    ]


def test_docs_name_only_symbols_that_exist():
    problems = [f"{doc.name}: {name}" for doc in DOCS
                for name in unresolved(doc.read_text())]
    assert problems == []


def test_a_deleted_symbol_is_caught():
    text = ("`repro.kvstore.gone_module.f`, `repro.kvstore.ShardedKV.gone`, "
            "`from repro.kvstore import Gone`; `repro.kvstore.ShardedKV.owner`, "
            "`python -m repro.bench.runner --all`, `src/repro/kvstore/` and "
            "`repro.kvstore.sharded` exist")
    assert unresolved(text) == [
        "repro.kvstore.gone_module.f", "repro.kvstore.ShardedKV.gone",
    ]


_CLASS_ATTR = re.compile(r"(?<![\w.])([A-Z]\w*)\.([\w*]+)")


def class_members():
    """``{class name: names it defines}`` for every class in
    ``src/repro``, with each in-tree base's names folded in: its defs,
    class-level assignments and dataclass fields, and ``self.attr``
    stores.  Classes sharing a name pool their names."""
    own, bases = {}, {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = own.setdefault(cls.name, set())
            bases.setdefault(cls.name, set()).update(
                b.id if isinstance(b, ast.Name) else b.attr
                for b in cls.bases if isinstance(b, (ast.Name, ast.Attribute)))
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(stmt.name)
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                           else [])
                names.update(t.id for t in targets if isinstance(t, ast.Name))
            names.update(
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self")

    def folded(name, seen):
        seen.add(name)
        out = set(own[name])
        for base in bases[name]:
            if base in own and base not in seen:
                out |= folded(base, seen)
        return out

    return {name: folded(name, set()) for name in own}


def unknown_members(text, members):
    """Backticked ``Class.attr`` names in ``text`` whose class is defined
    in ``src/repro`` but defines no such attr (a ``*`` glob is
    skipped)."""
    return [f"{cls}.{attr}" for span in _SPAN.findall(text)
            for cls, attr in _CLASS_ATTR.findall(span)
            if cls in members and "*" not in attr and attr not in members[cls]]


def test_docs_name_only_class_members_that_exist():
    members = class_members()
    problems = [f"{doc.name}: {name}" for doc in DOCS
                for name in unknown_members(doc.read_text(), members)]
    assert problems == []


def test_a_deleted_class_member_is_caught():
    text = ("`TaskCache.gone_hook`, `EpochPlan.repin(owner_of)`; "
            "`TaskCache.dropped_pulls`, `TaskCache.read_chunk` (a base's def), "
            "`TaskCacheStats.local_hits` (a field), `ShardedKV.local_*`, "
            "`ChunkWindow.prefetcher` and `NotAClass.gone` exist or are "
            "skipped")
    assert unknown_members(text, class_members()) == [
        "TaskCache.gone_hook", "EpochPlan.repin",
    ]
