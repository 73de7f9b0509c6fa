"""Benchmarks for the experiment runtime: cache speedup and parallel sweep.

Two claims are enforced:

* a warm prepare-stage cache makes re-running a prepare-dominated
  experiment at least 5x faster than a cold run (the cache pays for the
  synthesis + model fitting, the re-run pays only compute/render +
  one unpickle);
* a 2-worker multi-experiment sweep beats the sequential wall-clock when
  the machine actually has a second core to run it on (on single-core
  runners the strict comparison is meaningless, so the benchmark falls
  back to asserting the process-pool overhead is bounded and the outputs
  identical).  Both sides are timed as interleaved pairs and compared by
  their medians, so one stall on a shared host does not decide the verdict.
"""

from __future__ import annotations

import os
import time

from repro.runtime.cache import PrepareCache
from repro.runtime.scheduler import execute_spec, run_experiments

REQUIRED_CACHE_SPEEDUP = 5.0

#: The representative prepare-dominated experiment: fitting TEASER and the
#: threshold model on a 200-exemplar GunPoint split dwarfs tracing a single
#: test exemplar, so nearly all of the cold wall-clock is cacheable.
REPRESENTATIVE = "figure3"
REPRESENTATIVE_OVERRIDES = {
    "n_train_per_class": 100,
    "n_test_per_class": 5,
    "exemplar_index": 0,
}

#: The sweep pair: two independent mid-scale experiments with no shared
#: state, each substantial enough to amortise worker start-up.
SWEEP = ["figure5", "figure8"]
SWEEP_OVERRIDES: dict = {}
#: Interleaved sequential/2-worker pairs behind the sweep gate's medians.
SWEEP_PAIRS = 3


def _best_of(function, repeats: int = 3):
    """Smallest wall-clock time over ``repeats`` runs (robust to CI jitter)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bench_warm_cache_rerun_speedup(tmp_path, run_once):
    cache = PrepareCache(tmp_path / "cache")

    cold_started = time.perf_counter()
    cold = execute_spec(
        REPRESENTATIVE, overrides=REPRESENTATIVE_OVERRIDES, cache=cache
    )
    cold_seconds = time.perf_counter() - cold_started
    assert not cold.cache_hit

    warm_seconds, warm = _best_of(
        lambda: execute_spec(
            REPRESENTATIVE, overrides=REPRESENTATIVE_OVERRIDES, cache=cache
        )
    )
    # Record the warm re-run under the benchmark timer for the harness log.
    run_once(
        execute_spec, REPRESENTATIVE, overrides=REPRESENTATIVE_OVERRIDES, cache=cache
    )

    assert warm.cache_hit
    assert warm.summary == cold.summary  # the cache changes cost, not bytes

    speedup = cold_seconds / warm_seconds
    assert speedup >= REQUIRED_CACHE_SPEEDUP, (
        f"expected a warm-cache re-run of {REPRESENTATIVE} to be >= "
        f"{REQUIRED_CACHE_SPEEDUP:.0f}x faster than cold, measured "
        f"{speedup:.1f}x (cold {cold_seconds * 1e3:.0f} ms, warm "
        f"{warm_seconds * 1e3:.0f} ms)"
    )


def test_bench_two_worker_sweep(
    tmp_path, run_once, interleaved_medians, bench_metrics
):
    # Each 2-worker run gets its own empty cache, so every timed run does
    # the same work and none starts warm.
    caches = (PrepareCache(tmp_path / f"cache-{pair}") for pair in range(SWEEP_PAIRS))

    def sequential_run():
        return run_experiments(SWEEP, jobs=1, overrides=SWEEP_OVERRIDES)

    def parallel_run():
        return run_experiments(
            SWEEP, jobs=2, overrides=SWEEP_OVERRIDES, cache=next(caches)
        )

    sequential_seconds, parallel_seconds, sequential, parallel = interleaved_medians(
        sequential_run, parallel_run, pairs=SWEEP_PAIRS
    )
    bench_metrics.update(
        sequential_median_s=sequential_seconds,
        parallel_median_s=parallel_seconds,
        pairs=SWEEP_PAIRS,
    )
    run_once(run_experiments, SWEEP, jobs=2, overrides=SWEEP_OVERRIDES)

    # Whatever the hardware, the two modes must agree byte-for-byte.
    assert [r.summary for r in parallel] == [r.summary for r in sequential]

    if (os.cpu_count() or 1) >= 2:
        assert parallel_seconds < sequential_seconds, (
            f"expected the 2-worker sweep of {SWEEP} to beat sequential "
            f"wall-clock, measured medians of {SWEEP_PAIRS} pairs: parallel "
            f"{parallel_seconds:.2f} s vs sequential {sequential_seconds:.2f} s"
        )
    else:
        # Single-core runner: parallelism cannot win; bound the overhead of
        # going through the process pool instead.
        assert parallel_seconds < sequential_seconds * 1.75 + 0.75, (
            f"process-pool overhead out of bounds on a single-core machine: "
            f"parallel {parallel_seconds:.2f} s vs sequential "
            f"{sequential_seconds:.2f} s"
        )
