"""Dataset path handling.

DIESEL stores *full file names* in key-value pairs and rebuilds the
directory hierarchy from them on demand (§4.1.1, §4.1.3).  Paths inside a
dataset are absolute, ``/``-separated, with no ``.``/``..`` components —
this module canonicalizes user input into that form.
"""

from __future__ import annotations


def normalize(path: str) -> str:
    """Canonicalize ``path`` to ``/a/b/c`` form.

    >>> normalize("a//b/./c")
    '/a/b/c'
    >>> normalize("/")
    '/'
    """
    if not isinstance(path, str):
        raise TypeError(f"path must be str, got {type(path).__name__}")
    # Already canonical: hand the same string back.  The "/." probe also
    # sends hidden names ("/.git") through the loop, which is only slower.
    if (
        path.startswith("/")
        and not path.endswith("/")
        and "//" not in path
        and "/." not in path
    ):
        return path
    parts = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            raise ValueError(f"path may not contain '..': {path!r}")
        parts.append(part)
    return "/" + "/".join(parts)


def split(path: str) -> tuple[str, ...]:
    """Split a normalized path into components (root → empty tuple)."""
    norm = normalize(path)
    if norm == "/":
        return ()
    return tuple(norm[1:].split("/"))


def join(*parts: str) -> str:
    """Join components into a normalized path."""
    return normalize("/".join(parts))


def dirname(path: str) -> str:
    """Parent directory of a normalized path (root's parent is root)."""
    return normalize(path).rpartition("/")[0] or "/"
