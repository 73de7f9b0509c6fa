"""Tests for the benchmark record writer (``tools/bench_record.py``).

Every ``BENCH_<name>.json`` record names the distance backend its DTW
searches ran under, read from :func:`repro.distance.backends.active_backend`
when the record is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.distance.backends import BACKEND_ENV_VAR, set_backend, use_backend

_TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"
if str(_TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(_TOOLS_DIR))

import bench_record  # noqa: E402


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_backend(None)
    yield
    set_backend(None)


@pytest.fixture
def recorder(tmp_path):
    recorder = bench_record.BenchRecorder(tmp_path)
    recorder.record_test("demo", "test_case", "passed", 0.25)
    return recorder


@pytest.mark.parametrize("backend", ["reference", "pruned"])
def test_record_names_the_active_backend(recorder, backend):
    with use_backend(backend):
        (path,) = recorder.write()
    record = json.loads(path.read_text())
    assert record["backend"] == backend
    assert "compiled_available" not in record


def test_environment_selected_backend_is_recorded(recorder, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
    (path,) = recorder.write()
    assert json.loads(path.read_text())["backend"] == "pruned"


def test_unknown_environment_backend_fails_the_write(recorder, monkeypatch, tmp_path):
    # A misconfigured run must not leave a record claiming no backend.
    monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
    with pytest.raises(ValueError, match="unknown distance backend"):
        recorder.write()
    assert not list(tmp_path.glob("BENCH_*.json"))


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
