"""scripts/bench_rows_diff.py: the "nothing moved" gate compares row
values, and the column order every printed table and BENCH file shows."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_rows_diff.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_rows_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(dir_, rows):
    dir_.mkdir()
    bench = {"name": "demo", "rows": rows, "notes": [], "engine": {}}
    (dir_ / "BENCH_demo.json").write_text(json.dumps(bench))


def test_reordered_columns_count_as_a_difference(tmp_path, capsys):
    write(tmp_path / "a", [{"x": 1, "y": 2}])
    write(tmp_path / "b", [{"y": 2, "x": 1}])
    assert load_script().main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "column order ['x', 'y'] -> ['y', 'x']" in capsys.readouterr().out


def test_identical_rows_pass(tmp_path, capsys):
    write(tmp_path / "a", [{"x": 1, "y": 2}])
    write(tmp_path / "b", [{"x": 1, "y": 2}])
    assert load_script().main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert "demo: rows and notes identical" in capsys.readouterr().out
