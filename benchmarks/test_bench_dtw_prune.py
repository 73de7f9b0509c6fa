"""Benchmark gate for the DTW 1-NN lower-bound cascade.

The paper's Table 1 yardstick is 1-NN on a GunPoint-scale split; the
UCR-suite observation (Rakthanmanon et al., KDD 2012) is that most candidate
pairs of such a search never need the quadratic dynamic program -- a
constant-time endpoint bound (LB_Kim), an envelope bound (LB_Keogh) and
running-best early abandoning answer them first.  This gate times exactly
that claim on our own kernels: :func:`repro.distance.dtw_search.dtw_nearest_neighbors`
against the dense oracle (every pair through the anti-diagonal wavefront,
then a stable per-row selection), on a z-normalised Table-1-scale DTW 1-NN
evaluation with a 10% band.

Equivalence comes first, speed second: the cascade must return
*bit-identical* neighbour indices, distances and predicted labels before its
>= 5x wall-clock win counts, and the reported pruning rate (the fraction of
pairs answered without the DP) must show the cascade is actually doing the
work rather than the chunking.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.gunpoint import GunPointGenerator
from repro.distance.dtw_search import dtw_nearest_neighbors
from repro.distance.znorm import znormalize

from oracles.dtw import dense_dtw_nearest_neighbors

REQUIRED_SPEEDUP = 5.0

#: The cascade must answer at least this fraction of the candidate pairs
#: before the dynamic program (measured ~0.6 on this split).
REQUIRED_PRUNING_RATE = 0.25

#: Table 1 scale: 25 train / 75 test exemplars per class, length 150.
TRAIN_PER_CLASS = 25
TEST_PER_CLASS = 75
LENGTH = 150
WINDOW = 0.1


def _best_of(function, repeats: int = 3):
    """Smallest wall-clock time over ``repeats`` runs (robust to CI jitter)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bench_pruned_dtw_nn_speedup(run_once, bench_metrics):
    """Cascading lower bounds vs the dense wavefront on Table-1-scale DTW 1-NN."""
    generator = GunPointGenerator(length=LENGTH, seed=7)
    train = generator.generate(n_per_class=TRAIN_PER_CLASS, seed=7)
    test = generator.generate(n_per_class=TEST_PER_CLASS, seed=11)
    train_series = znormalize(train.series)
    test_series = znormalize(test.series)

    def dense_search():
        return dense_dtw_nearest_neighbors(test_series, train_series, window=WINDOW)

    def pruned_search():
        return dtw_nearest_neighbors(
            test_series, train_series, window=WINDOW, return_stats=True
        )

    dense_seconds, (dense_idx, dense_dist) = _best_of(dense_search, repeats=2)
    pruned_seconds, (pruned_idx, pruned_dist, stats) = _best_of(pruned_search)
    run_once(pruned_search)

    # Bit-exactness first: identical neighbour indices, identical distances,
    # and therefore identical predicted labels.
    np.testing.assert_array_equal(pruned_idx, dense_idx)
    np.testing.assert_array_equal(pruned_dist, dense_dist)
    np.testing.assert_array_equal(
        train.labels[pruned_idx[:, 0]], train.labels[dense_idx[:, 0]]
    )

    assert stats.n_pairs == test_series.shape[0] * train_series.shape[0]
    assert stats.pruning_rate >= REQUIRED_PRUNING_RATE, (
        f"lower-bound cascade only answered {stats.pruning_rate:.0%} of "
        f"{stats.n_pairs} pairs before the DP "
        f"(LB_Kim {stats.lb_kim_pruned}, LB_Keogh {stats.lb_keogh_pruned}, "
        f"abandoned {stats.dp_abandoned} of {stats.dp_computed} DPs)"
    )

    speedup = dense_seconds / pruned_seconds
    bench_metrics.update(
        speedup=speedup,
        dense_seconds=dense_seconds,
        pruned_seconds=pruned_seconds,
        pruning_rate=stats.pruning_rate,
        n_pairs=stats.n_pairs,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x on a "
        f"{test_series.shape[0]}x{train_series.shape[0]} length-{LENGTH} "
        f"DTW 1-NN evaluation with a {WINDOW:.0%} band, measured "
        f"{speedup:.1f}x (dense {dense_seconds * 1e3:.0f} ms, pruned "
        f"{pruned_seconds * 1e3:.0f} ms, pruning rate "
        f"{stats.pruning_rate:.0%})"
    )
