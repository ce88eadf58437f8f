#!/usr/bin/env python3
"""Markdown link checker (stdlib only, for the CI docs job).

Scans the given markdown files (or the repo's default documentation
set) for inline links and verifies that every *relative* target exists
on disk, including ``#anchor`` fragments against the target file's
headings.  External URLs (``http://``, ``https://``, ``mailto:``) are
syntax-checked only — CI must not depend on network reachability.

Beyond per-link checks, ``docs/INDEX.md`` is treated as the landing
page: every ``*.md`` file under ``docs/`` must be reachable from it
(linked directly), so a new doc cannot be added without an index
entry.

Exit status: 0 when every link resolves, 1 otherwise (broken links are
listed one per line as ``file:line: target — reason``).

Usage::

    python scripts/check_doc_links.py [FILE.md ...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

DEFAULT_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CONTRIBUTING.md",
    *sorted(str(p.relative_to(REPO)) for p in (REPO / "docs").glob("*.md")),
]

# Inline links/images: [text](target) — tolerates one level of nested
# brackets in the text; skips fenced code blocks below.
LINK_RE = re.compile(r"!?\[(?:[^\[\]]|\[[^\]]*\])*\]\(([^()\s]+)[^)]*\)")
EXTERNAL = ("http://", "https://", "mailto:")


def heading_anchors(path: Path) -> set[str]:
    """GitHub-style anchors for every heading in ``path``."""
    anchors: set[str] = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        title = line.lstrip("#").strip()
        # Strip markdown emphasis/code, then slugify the GitHub way.
        title = re.sub(r"[`*_]", "", title)
        slug = re.sub(r"[^\w\s-]", "", title.lower())
        slug = re.sub(r"\s+", "-", slug.strip())
        anchors.add(slug)
    return anchors


def _display(md: Path) -> Path:
    try:
        return md.relative_to(REPO)
    except ValueError:
        return md


def check_file(md: Path) -> list[str]:
    errors: list[str] = []
    in_fence = False
    for lineno, line in enumerate(
        md.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(EXTERNAL):
                continue
            if target.startswith("#"):
                if target[1:] not in heading_anchors(md):
                    errors.append(
                        f"{_display(md)}:{lineno}: {target} "
                        "— no such heading"
                    )
                continue
            path_part, _, fragment = target.partition("#")
            dest = (md.parent / path_part).resolve()
            if not dest.exists():
                errors.append(
                    f"{_display(md)}:{lineno}: {target} "
                    "— file not found"
                )
                continue
            if fragment and dest.suffix == ".md":
                if fragment not in heading_anchors(dest):
                    errors.append(
                        f"{_display(md)}:{lineno}: {target} "
                        f"— no heading #{fragment} in {path_part}"
                    )
    return errors


def check_index_coverage() -> list[str]:
    """Every ``docs/*.md`` must be linked from the docs landing page."""
    index = REPO / "docs" / "INDEX.md"
    if not index.exists():
        return ["docs/INDEX.md: file not found (docs landing page)"]
    linked: set[Path] = set()
    in_fence = False
    for line in index.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            path_part = target.partition("#")[0]
            linked.add((index.parent / path_part).resolve())
    return [
        f"docs/INDEX.md: docs/{md.name} is not linked from the index"
        for md in sorted((REPO / "docs").glob("*.md"))
        if md.name != "INDEX.md" and md.resolve() not in linked
    ]


def main(argv: list[str]) -> int:
    names = argv or DEFAULT_FILES
    errors: list[str] = []
    for name in names:
        md = (REPO / name) if not Path(name).is_absolute() else Path(name)
        if not md.exists():
            errors.append(f"{name}: file not found")
            continue
        errors.extend(check_file(md))
    if not argv:  # default set: also enforce the docs landing page
        errors.extend(check_index_coverage())
    for err in errors:
        print(err)
    checked = len(names)
    if errors:
        print(f"\n{len(errors)} broken link(s) across {checked} file(s)",
              file=sys.stderr)
        return 1
    print(f"all links OK across {checked} file(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
