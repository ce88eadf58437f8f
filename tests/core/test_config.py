"""Tests for DieselConfig."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.core.config import DieselConfig


class TestDieselConfig:
    def test_defaults_match_paper(self):
        cfg = DieselConfig()
        assert cfg.chunk_size == 4 * 1024 * 1024  # >= 4MB chunks
        assert cfg.shuffle_group_size == 100  # ImageNet group size (Fig 13)

    @pytest.mark.parametrize(
        "kw",
        [
            {"chunk_size": 0},
            {"shuffle_group_size": 0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            DieselConfig(**kw)

    def test_frozen(self):
        cfg = DieselConfig()
        with pytest.raises(Exception):
            cfg.chunk_size = 1

    def test_every_field_is_read_by_a_component(self):
        """docs/CONFIG.md: "a field exists only if some component reads
        it" — as ``config.<field>`` / ``<obj>.config.<field>`` somewhere
        in ``src/repro`` other than ``core/config.py`` and ``bench/``."""
        src = Path(repro.__file__).parent
        read = set()
        for path in src.rglob("*.py"):
            rel = path.relative_to(src).as_posix()
            if rel == "core/config.py" or rel.startswith("bench/"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and "config" in (
                    getattr(node.value, "id", None),
                    getattr(node.value, "attr", None),
                ):
                    read.add(node.attr)
        assert {f.name for f in fields(DieselConfig)} <= read
