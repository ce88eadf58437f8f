"""Tests for DieselConfig and the ETCD-like ConfigStore."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.core.config import ConfigStore, DieselConfig


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


class TestConfigStore:
    def test_put_get(self):
        store = ConfigStore()
        assert store.get("k") is None
        assert store.get("k", "fallback") == "fallback"
        v1 = store.put("k", {"a": 1})
        assert v1 == 1
        assert store.get("k") == {"a": 1}
        assert store.put("k", 2) == 2
        assert store.version("k") == 2

    def test_delete(self):
        store = ConfigStore()
        store.put("k", 1)
        assert store.delete("k")
        assert store.get("k") is None
        assert not store.delete("k")
        # deletion still bumps the version once
        assert store.version("k") == 2

    def test_watch_fires_on_put_and_delete(self):
        store = ConfigStore()
        seen = []
        store.watch("cfg", lambda k, v: seen.append((k, v)))
        store.put("cfg", "a")
        store.put("other", "ignored")
        store.put("cfg", "b")
        store.delete("cfg")
        assert seen == [("cfg", "a"), ("cfg", "b"), ("cfg", None)]

    def test_keys_prefix(self):
        store = ConfigStore()
        store.put("diesel/chunk_size", 1)
        store.put("diesel/policy", 2)
        store.put("lustre/mds", 3)
        assert store.keys("diesel/") == ["diesel/chunk_size", "diesel/policy"]
        assert len(store.keys()) == 3
