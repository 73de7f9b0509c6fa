"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation of one of the library's design choices).  The functions being
timed are full experiments, not micro-kernels, so each benchmark runs a single
round -- the value of the harness is (a) a one-command regeneration of every
artefact and (b) a stable record of how long each one takes.

Point (b) is made durable by ``tools/bench_record.py``: the hooks below give
every ``test_bench_<name>.py`` module a machine-readable
``results/bench/BENCH_<name>.json`` record (per-test outcomes and wall-clock
durations, plus whatever a benchmark reports through the ``bench_metrics``
fixture -- speedups, component timings, pruning rates).  The records carry the
git SHA and the Python/platform/NumPy versions, so runs are comparable across
commits.

Speed gates time the library against the semantic oracles in
``tests/oracles/``, which the ``sys.path`` insert below makes importable as
``oracles``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from statistics import median

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (_REPO_ROOT / "tools", _REPO_ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from bench_record import BenchRecorder  # noqa: E402

_RECORDER = BenchRecorder()

_MODULE_PREFIX = "test_bench_"


def _bench_name(node) -> str | None:
    """The record name for a test item, or ``None`` for non-benchmark files."""
    stem = Path(str(node.fspath)).stem
    if stem.startswith(_MODULE_PREFIX):
        return stem[len(_MODULE_PREFIX) :]
    return None


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under the benchmark timer and return its result."""

    def _run(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture
def interleaved_medians():
    """Time two callables as alternating pairs and compare their medians.

    A load spike then slows runs of both sides rather than all runs of the
    side that happened to be timed during it.  The fixture is a callable
    ``(reference, candidate, pairs=5)`` returning ``(reference_s,
    candidate_s, reference_result, candidate_result)``.
    """

    def measure(reference, candidate, pairs: int = 5):
        times: tuple[list, list] = ([], [])
        results = [None, None]
        for _ in range(pairs):
            for side, function in enumerate((reference, candidate)):
                started = time.perf_counter()
                results[side] = function()
                times[side].append(time.perf_counter() - started)
        return median(times[0]), median(times[1]), results[0], results[1]

    return measure


@pytest.fixture
def bench_metrics(request):
    """A dict a benchmark fills with metrics bound for its ``BENCH_*.json``.

    Whatever is in the dict at teardown is merged into the test's entry, so
    metrics recorded before a ``pytest.skip`` or a failed assertion still
    land in the record.
    """
    metrics: dict = {}
    yield metrics
    name = _bench_name(request.node)
    if name is not None and metrics:
        _RECORDER.record_metrics(name, request.node.name, dict(metrics))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    name = _bench_name(item)
    if name is None:
        return
    # The call phase carries the real duration; a setup-phase skip (marker or
    # fixture) is the only way a benchmark ends without a call phase at all.
    if report.when == "call" or (report.when == "setup" and report.skipped):
        _RECORDER.record_test(name, item.name, report.outcome, report.duration)


def pytest_sessionfinish(session, exitstatus):
    _RECORDER.write()
