"""Tests for the benchmark record writer (``tools/bench_record.py``).

Every ``BENCH_<name>.json`` record carries per-test outcomes, durations and
explicit metrics, stamped with the git SHA and the Python/platform/NumPy
versions it ran under.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path

import numpy as np
import pytest

_TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
if str(_TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(_TOOLS_DIR))

import bench_record  # noqa: E402


@pytest.fixture
def recorder(tmp_path):
    recorder = bench_record.BenchRecorder(tmp_path)
    recorder.record_test("demo", "test_case", "passed", 0.25)
    return recorder


def test_records_round_trip(recorder, tmp_path):
    recorder.record_metrics("demo", "test_case", {"speedup": 7.5})
    recorder.write()
    (record,) = bench_record.load_records(tmp_path)
    assert record["benchmark"] == "demo"
    assert record["tests"]["test_case"] == {
        "outcome": "passed",
        "seconds": 0.25,
        "metrics": {"speedup": 7.5},
    }
    assert {"python", "platform", "numpy"} <= record.keys()
    assert "backend" not in record


def test_provenance_names_this_interpreter(recorder, tmp_path):
    recorder.write()
    (record,) = bench_record.load_records(tmp_path)
    assert record["python"] == platform.python_version()
    assert record["platform"] == platform.platform()
    assert record["numpy"] == np.__version__


def test_nothing_recorded_writes_nothing(tmp_path):
    out_dir = tmp_path / "bench"
    assert bench_record.BenchRecorder(out_dir).write() == []
    assert not out_dir.exists()


def test_one_record_per_module(recorder, tmp_path):
    recorder.record_test("other", "test_b", "failed", 1.5)
    recorder.record_metrics("other", "test_b", {"rate": 0.5})
    recorder.record_metrics("other", "test_b", {"speedup": 3.0})
    paths = recorder.write()
    assert [p.name for p in paths] == ["BENCH_demo.json", "BENCH_other.json"]
    records = bench_record.load_records(tmp_path)
    assert [r["benchmark"] for r in records] == ["demo", "other"]
    assert records[1]["tests"]["test_b"]["metrics"] == {"rate": 0.5, "speedup": 3.0}


def test_summary_prints_each_test_and_its_metrics(recorder, tmp_path, capsys):
    recorder.record_metrics("demo", "test_case", {"speedup": 7.54321, "n": 3})
    recorder.write()
    assert bench_record.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("demo  (sha ")
    assert lines[1] == "  test_case: passed in 0.250s  [n=3, speedup=7.543]"


def test_summary_without_records_fails(tmp_path, capsys):
    assert bench_record.main([str(tmp_path)]) == 1
    assert "no BENCH_*.json records" in capsys.readouterr().out
