"""The counter base: sums and high-water marks derived from the fields,
and docs/OBSERVABILITY.md's counter tables kept in step with them."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.client import ClientStats
from repro.core.dist_cache import TaskCacheStats
from repro.core.shared_cache import SharedCacheStats
from repro.objectstore.tiered import TieredStats

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def test_total_sums_counters_and_maxes_high_water_marks():
    a = ClientStats(gets=3, fetch_inflight_hwm=4)
    b = ClientStats(gets=5, fetch_inflight_hwm=2)
    total = ClientStats.total([a, b])
    assert (total.gets, total.fetch_inflight_hwm) == (8, 4)
    assert ClientStats.total([]) == ClientStats()


def documented(cls):
    """Names in the first column of the table under the heading that
    ends "a `<cls>`)"."""
    section = DOC.read_text().split(f", a `{cls.__name__}`)")[1]
    section = re.split(r"\n##", section)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names |= set(re.findall(r"`(\w+)`", line.split("|")[1]))
    return names


@pytest.mark.parametrize("cls", [TaskCacheStats, SharedCacheStats, TieredStats])
def test_counter_table_names_exactly_the_fields(cls):
    declared = {f.name for f in fields(cls)}
    names = documented(cls)
    assert sorted(declared - names) == [], f"{cls.__name__}: undocumented"
    extra = {n for n in names - declared
             if not isinstance(getattr(cls, n, None), property)}
    assert sorted(extra) == [], f"{cls.__name__}: not a field or property"
