"""Tests for the unified memory budget (:mod:`repro.memory`).

Covers the resolution precedence (process-wide > environment > default),
that the budget actually bounds each kernel's working set, and -- the
load-bearing property -- that chunking against *any* budget leaves every
budgeted kernel's output bit-identical to the unchunked computation.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from repro import memory
from repro.data.ucr_format import UCRDataset
from repro.distance.engine import batch_prefix_distances
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.memory import (
    DEFAULT_MAX_BLOCK_BYTES,
    MEMORY_BUDGET_ENV_VAR,
    get_memory_budget,
    memory_budget,
    set_memory_budget,
)


@pytest.fixture(autouse=True)
def _clean_budget(monkeypatch):
    """Every test starts from the unconfigured state."""
    monkeypatch.delenv(MEMORY_BUDGET_ENV_VAR, raising=False)
    set_memory_budget(None)
    yield
    set_memory_budget(None)


class TestPrecedence:
    def test_default_is_the_historical_64_mib(self):
        assert DEFAULT_MAX_BLOCK_BYTES == 64 * 2**20
        assert get_memory_budget() == DEFAULT_MAX_BLOCK_BYTES

    def test_environment_variable_overrides_the_default(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "12345")
        assert get_memory_budget() == 12345

    def test_set_memory_budget_overrides_the_environment(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "12345")
        set_memory_budget(999)
        assert get_memory_budget() == 999

    def test_clearing_restores_environment_resolution(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "4096")
        set_memory_budget(1)
        set_memory_budget(None)
        assert get_memory_budget() == 4096

    def test_environment_is_read_at_call_time(self, monkeypatch):
        assert get_memory_budget() == DEFAULT_MAX_BLOCK_BYTES
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "2048")
        assert get_memory_budget() == 2048


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -1, -(2**30)])
    def test_non_positive_budget_raises(self, bad):
        with pytest.raises(ValueError, match="positive"):
            set_memory_budget(bad)

    def test_non_integer_budget_raises(self):
        with pytest.raises(ValueError):
            set_memory_budget("lots")  # type: ignore[arg-type]

    def test_malformed_environment_value_raises_not_ignored(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "64MB")
        with pytest.raises(ValueError, match=MEMORY_BUDGET_ENV_VAR):
            get_memory_budget()


class TestContextManager:
    def test_budget_applies_inside_and_restores_after(self):
        with memory_budget(2**20) as active:
            assert active == 2**20
            assert get_memory_budget() == 2**20
        assert get_memory_budget() == DEFAULT_MAX_BLOCK_BYTES

    def test_nested_budgets_restore_outer(self):
        with memory_budget(100):
            with memory_budget(200):
                assert get_memory_budget() == 200
            assert get_memory_budget() == 100

    def test_restores_even_on_exception(self):
        set_memory_budget(50)
        with pytest.raises(RuntimeError):
            with memory_budget(60):
                raise RuntimeError("boom")
        assert get_memory_budget() == 50


class TestChunkingEquivalence:
    """A tight budget forces many chunks; output must stay bit-identical."""

    rng = np.random.default_rng(42)
    queries = rng.normal(size=(13, 40))
    train = rng.normal(size=(7, 40))

    # Each test makes its chunked call first, so no earlier identical result
    # can be left in the memory the chunked output is allocated from.

    def test_batch_prefix_distances(self):
        with memory_budget(1024):  # a few rows per chunk
            chunked = batch_prefix_distances(self.queries, self.train, [10, 25, 40])
        reference = batch_prefix_distances(self.queries, self.train, [10, 25, 40])
        np.testing.assert_array_equal(chunked, reference)

    def test_environment_variable_reaches_the_kernels(self, monkeypatch):
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, "512")
        chunked = batch_prefix_distances(self.queries, self.train, [40])
        monkeypatch.delenv(MEMORY_BUDGET_ENV_VAR)
        reference = batch_prefix_distances(self.queries, self.train, [40])
        np.testing.assert_array_equal(chunked, reference)

    def test_chunked_finiteness_validation_matches(self):
        from repro.data.ucr_format import UCRDataset

        series = self.rng.normal(size=(9, 64))
        with memory_budget(256):  # forces multi-chunk validation
            dataset = UCRDataset(name="x", series=series, labels=np.zeros(9))
        np.testing.assert_array_equal(dataset.series, series)
        bad = series.copy()
        bad[7, 60] = np.nan
        with memory_budget(256), pytest.raises(ValueError, match="non-finite"):
            UCRDataset(name="x", series=bad, labels=np.zeros(9))

    def test_module_state_is_inspectable(self):
        # Regression guard: the module-level budget must live in repro.memory
        # (not be shadowed per-import elsewhere).
        set_memory_budget(4321)
        assert memory._BUDGET == 4321

    def test_multichannel_batch_prefix_distances(self):
        queries = self.rng.normal(size=(11, 20, 3))
        train = self.rng.normal(size=(6, 20, 3))
        with memory_budget(1024):
            chunked = batch_prefix_distances(queries, train, [4, 20], squared=True)
        reference = batch_prefix_distances(queries, train, [4, 20], squared=True)
        np.testing.assert_array_equal(chunked, reference)


def _peak_traced_bytes(fn) -> int:
    """Peak traced allocation while ``fn`` runs (NumPy buffers included)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        if not tracing:
            tracemalloc.stop()


class TestBudgetBoundsWorkingSet:
    """A budget caps what a kernel allocates beyond its result, not just its chunk count.

    Each case is sized so the unbudgeted temporary is many budgets large:
    under the budget the peak must stay within the result plus a few
    budgets, and without it the same bound must be exceeded (so the check
    can fail).
    """

    rng = np.random.default_rng(7)

    def _assert_bounded(self, fn, result_bytes: int, budget: int) -> None:
        with memory_budget(budget):
            bounded = _peak_traced_bytes(fn)
        unbounded = _peak_traced_bytes(fn)
        limit = result_bytes + 4 * budget
        assert bounded <= limit < unbounded

    def test_batch_prefix_distances(self):
        queries = self.rng.normal(size=(200, 100))
        train = self.rng.normal(size=(50, 100))
        self._assert_bounded(
            lambda: batch_prefix_distances(queries, train, [10, 50, 100]),
            result_bytes=3 * 200 * 50 * 8,
            budget=64 * 1024,
        )

    def test_dataset_finiteness_validation(self):
        series = self.rng.normal(size=(4000, 100))
        labels = np.zeros(4000)
        self._assert_bounded(
            lambda: UCRDataset(name="x", series=series, labels=labels),
            result_bytes=0,
            budget=16 * 1024,
        )


_BUDGETED_CALLS = {
    "batch_prefix_distances": lambda q, t, **kw: batch_prefix_distances(
        q, t, [10, 40], **kw
    ),
}


class TestOneBudgetPerProcess:
    """The budget is set per process or by environment, never per call."""

    rng = np.random.default_rng(9)
    queries = rng.normal(size=(6, 40))
    train = rng.normal(size=(5, 40))

    @pytest.mark.parametrize("name", sorted(_BUDGETED_CALLS))
    def test_kernels_take_no_per_call_budget(self, name):
        with pytest.raises(TypeError, match="max_block_bytes"):
            _BUDGETED_CALLS[name](self.queries, self.train, max_block_bytes=1024)

    def test_classifier_takes_no_sweep_budget(self):
        with pytest.raises(TypeError, match="max_prefix_sweep_bytes"):
            KNeighborsTimeSeriesClassifier(max_prefix_sweep_bytes=4096)
        assert not hasattr(KNeighborsTimeSeriesClassifier, "max_prefix_sweep_bytes")

    def test_budgeted_kernels_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in _BUDGETED_CALLS.values():
                call(self.queries, self.train)
            with memory_budget(512):
                for call in _BUDGETED_CALLS.values():
                    call(self.queries, self.train)
