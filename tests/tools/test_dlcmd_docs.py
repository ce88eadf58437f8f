"""The docs name only dlcmd subcommands and flags the parser has.

Every `` `dlcmd …` `` / `` `python -m repro.tools.dlcmd …` `` code span
and every ``$ dlcmd …`` shell line in ``README.md``, ``DESIGN.md`` and
``docs/*.md`` is checked against :func:`repro.tools.dlcmd._build_parser`:
its first word after the global options must be a subcommand, and every
flag must be one that subcommand (or the tool) accepts.  ``CHANGES.md``,
``EXPERIMENTS.md`` and ``ROADMAP.md`` are history and are skipped.
"""

import argparse
import re
from pathlib import Path

from repro.tools import dlcmd

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]

_PROG = r"(?:dlcmd|python -m repro\.tools\.dlcmd)"
_SPAN = re.compile(rf"`{_PROG}\b([^`]*)`")
_SHELL = re.compile(rf"^\s*\$ {_PROG}\b(.*)$", re.M)


def mentions():
    """``(where, argument words)`` for every dlcmd invocation in the docs."""
    for doc in DOCS:
        text = doc.read_text()
        for pattern in (_SPAN, _SHELL):
            for m in pattern.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                words = m.group(1).split("#")[0].split()
                yield f"{doc.name}:{line}", words


def _flags(parser):
    return {opt for action in parser._actions for opt in action.option_strings}


def _subcommands(parser):
    (sub,) = (a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def problems(parser):
    """What the docs name that ``parser`` lacks."""
    top, subs = _flags(parser), _subcommands(parser)
    found = []
    for where, words in mentions():
        words = iter(words)
        command = None
        for word in words:
            if word in ("-w", "--workspace", "-d", "--dataset"):
                next(words, None)
            elif word.startswith("-"):
                if word not in top:
                    found.append(f"{where}: dlcmd has no option {word}")
            else:
                command = word
                break
        if command is None:
            continue
        if command not in subs:
            found.append(f"{where}: dlcmd has no subcommand {command!r}")
            continue
        flags = _flags(subs[command]) | top
        for word in words:
            if word.startswith("-") and word.split("=")[0] not in flags:
                found.append(f"{where}: dlcmd {command} has no option {word}")
    return found


def test_docs_name_only_what_the_parser_has():
    assert list(mentions()), "no dlcmd mention found in the docs"
    assert problems(dlcmd._build_parser()) == []


def test_a_subcommand_removed_without_its_docs_is_caught():
    parser = dlcmd._build_parser()
    del _subcommands(parser)["stats"]
    assert any("no subcommand 'stats'" in p for p in problems(parser))
