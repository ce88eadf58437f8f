"""Sync test: docs/CONFIG.md must document every DieselConfig field.

The reference page promises a row per field with the code's actual
default; this test makes the promise structural, so adding a config
knob without documenting it (or letting a documented default rot)
fails CI.
"""

import inspect
import re
from dataclasses import MISSING, fields
from pathlib import Path

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.core.config import DieselConfig
from repro.core.dist_cache import TaskCache

DOC = Path(__file__).resolve().parents[2] / "docs" / "CONFIG.md"


def doc_text():
    return DOC.read_text()


def doc_table_rows():
    """{field: row-cells} for the markdown field table."""
    rows = {}
    for line in doc_text().split("## Fields")[1].split("\n## ")[0].splitlines():
        m = re.match(r"\|\s*`(\w+)`\s*\|", line)
        if m and m.group(1) != "field":
            rows[m.group(1)] = [c.strip() for c in line.split("|")[1:-1]]
    return rows


class TestConfigDocsSync:
    def test_every_field_has_a_table_row(self):
        documented = set(doc_table_rows())
        actual = {f.name for f in fields(DieselConfig)}
        assert documented == actual, (
            f"docs/CONFIG.md table out of sync: "
            f"missing={sorted(actual - documented)}, "
            f"stale={sorted(documented - actual)}"
        )

    def test_every_field_has_a_semantics_section(self):
        text = doc_text()
        for f in fields(DieselConfig):
            assert f"### `{f.name}`" in text, (
                f"docs/CONFIG.md lacks a semantics section for {f.name}"
            )

    def test_exercised_by_names_experiments_that_use_the_field(self):
        """The ids before the cell's first ``;`` are experiments, and
        each one's source mentions the field it is credited with."""
        for name, cells in doc_table_rows().items():
            ids = re.findall(r"`([^`]+)`", cells[4].split(";")[0])
            assert ids, f"no experiment exercises {name}"
            for exp in ids:
                assert name in inspect.getsource(ALL_EXPERIMENTS[exp]), (
                    f"docs/CONFIG.md credits {exp!r} with {name}, "
                    f"which its source never mentions"
                )

    def test_documented_defaults_match_code(self):
        rows = doc_table_rows()
        for f in fields(DieselConfig):
            assert f.default is not MISSING
            cell = rows[f.name][1]
            if f.name == "chunk_size":
                # Documented symbolically; check the human-readable size.
                assert "4 MiB" in cell
                assert f.default == 4 * 1024 * 1024
            else:
                assert f"`{f.default}`" in cell, (
                    f"default for {f.name} documented as {cell!r}, "
                    f"code says {f.default!r}"
                )

    def test_cache_arguments_name_real_parameters(self):
        """Every ``name=`` the page gives ``TaskCache(...)`` is a
        parameter of its constructor, and no optional one is left out."""
        call = re.search(r"`TaskCache\(\.\.\.,([^)]*)\)`", doc_text()).group(1)
        documented = set(re.findall(r"(\w+)=", call))
        params = inspect.signature(TaskCache.__init__).parameters
        optional = {
            n for n, p in params.items()
            if p.default is not inspect.Parameter.empty and n != "calibration"
        }
        assert documented == optional
