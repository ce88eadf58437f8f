"""Human-readable byte-size formatting."""

from __future__ import annotations


def format_bytes(n: float) -> str:
    """Format a byte count with a binary-prefix unit.

    >>> format_bytes(4 * 1024 * 1024)
    '4.00 MiB'
    """
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            if unit == "B":
                return f"{int(n)} B"
            return f"{n:.2f} {unit}"
        n /= 1024
    raise AssertionError("unreachable")
