"""One counter vocabulary: the base every ``*Stats`` class declares on.

A stats class is a ``@dataclass(slots=True)`` subclass of
:class:`Counters`; its fields are its counters, in the order rows and
tables print them.  Everything else is derived from that declaration:

* :meth:`Counters.to_dict` — every field as ``{name: value}``, so a
  counter added to a class can never silently drop out of a row;
* :meth:`Counters.total` — one instance adding up several (the node
  tiers of a registry, the servers of a testbed, a task's live and
  departed masters).  A field declared with :func:`hwm` is a
  high-water mark and takes the max instead of the sum;
* :func:`stats_row` — the one path from a stats object (or anything
  else with ``to_dict()``, such as a :class:`~repro.obs.SpanRecorder`)
  into table cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, Sequence, TypeVar

_C = TypeVar("_C", bound="Counters")


def hwm() -> Any:
    """Declare a high-water-mark field (default 0): the most of
    something ever at once, which :meth:`Counters.total` maxes."""
    return field(default=0, metadata={"hwm": True})


@dataclass(slots=True)
class Counters:
    """Base of every stats class: rows and sums derived from the fields."""

    def to_dict(self) -> Dict[str, Any]:
        """All counters as ``{name: value}``, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def total(cls: type[_C], parts: Iterable[_C]) -> _C:
        """A new instance adding up ``parts`` field by field
        (high-water marks: the max); defaults when there are none."""
        parts = list(parts)
        out = cls()
        if parts:
            for f in fields(cls):
                column = [getattr(p, f.name) for p in parts]
                setattr(out, f.name,
                        max(column) if f.metadata.get("hwm") else sum(column))
        return out


def stats_row(
    stats: Any, keys: Sequence[str] | None = None, prefix: str = ""
) -> Dict[str, Any]:
    """Select counters from a stats object's ``to_dict()`` as table cells.

    ``keys=None`` takes every counter, in declaration order; ``prefix``
    namespaces the columns (e.g. ``"srv_"``).  A recorder's
    ``to_dict()`` flattens per-(op, layer) latency percentiles, so
    they merge into the same row as plain counters.
    """
    counters = stats.to_dict()
    if keys is None:
        keys = list(counters)
    return {f"{prefix}{k}": counters[k] for k in keys}
