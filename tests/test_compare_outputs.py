"""``benchmarks/compare_outputs.py``: the parent-vs-change answer guard
(no Spark)."""
import json

import pytest

from benchmarks.compare_outputs import compare, main

RESULT = {
    "mu": 100.0,
    "datasets": [1, 2],
    "ISLA": [100.01, 99.98],
    "time_ms": {"ISLA": 812.5, "US": 201.0},
    "label": "x",
}


def write(d, result):
    d.mkdir()
    (d / "table3.json").write_text(json.dumps(result, indent=2))
    return d


@pytest.fixture
def parent(tmp_path):
    return write(tmp_path / "parent", RESULT)


def test_equal_dirs_pass(tmp_path, parent, capsys):
    change = write(tmp_path / "change", RESULT)
    assert compare(parent, change) == (5, [])
    assert main([str(parent), str(change)]) == 0
    assert "5 numbers compared, 0 mismatches" in capsys.readouterr().out


def test_relative_change_of_1e8_fails(tmp_path, parent, capsys):
    changed = {**RESULT, "ISLA": [100.01 * (1 + 1e-8), 99.98]}
    change = write(tmp_path / "change", changed)
    n, mismatches = compare(parent, change)
    assert n == 5 and len(mismatches) == 1
    assert mismatches[0].startswith("table3.json.ISLA[0]:")
    assert main([str(parent), str(change)]) == 1
    assert "1 mismatches" in capsys.readouterr().out


def test_time_ms_change_passes(tmp_path, parent):
    changed = {**RESULT, "time_ms": {"ISLA": 9999.0, "US": 1.0}}
    change = write(tmp_path / "change", changed)
    assert compare(parent, change) == (5, [])
