"""Benchmark for the batched test-set-at-once prediction engine.

Every headline number of the paper (Table 1, Figures 6-9) is a full test set
driven through an early classifier.  The seed behaviour fed exemplars one at
a time through ``predict_early``; ``predict_early_batch`` answers the whole
test set from one :func:`repro.distance.engine.batch_prefix_distances` pass
plus vectorised per-checkpoint statistics.  This benchmark times a Table 1
style evaluation (ECTS, the table's lead algorithm, on a GunPoint-like
split) both ways and asserts the batched path is at least 5x faster while
reproducing the per-row metrics exactly.

The EDSC record does the same for Table 1's two shapelet rows on the table's
own 50-row test split, normalised and denormalised: the batched walk reads
one first-match length per (shapelet, row), the per-row walk rescans every
shapelet at every checkpoint.  It records both sides' rows per second (each
the median of ``REPEATS`` timed evaluations) and their ratio.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.classifiers.ects import ECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.data.denormalize import denormalize_dataset
from repro.data.gunpoint import GunPointGenerator
from repro.evaluation.earliness import evaluate_early_classifier
from repro.experiments import table1

N_PER_CLASS = 90
LENGTH = 150
REQUIRED_SPEEDUP = 5.0
REPEATS = 3


def _make_split():
    full = GunPointGenerator(length=LENGTH, seed=7).generate(
        n_per_class=N_PER_CLASS, seed=7
    )
    indices = range(2 * N_PER_CLASS)
    train = full.subset([i for i in indices if i % 6 == 0])  # 30 exemplars
    test = full.subset([i for i in indices if i % 6 != 0])  # 150 exemplars
    return train, test


def _best_of(function, repeats: int = 3):
    """Smallest wall-clock time over ``repeats`` runs (robust to CI jitter)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def _median_of(function):
    """Median wall-clock time over ``REPEATS`` runs, and the last result."""
    seconds = []
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = function()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def test_bench_batch_predict_speedup(run_once):
    train, test = _make_split()
    model = ECTSClassifier(min_support=0.0).fit(train.series, train.labels)

    perrow_seconds, perrow = _best_of(
        lambda: evaluate_early_classifier(model, test.series, test.labels, batch=False)
    )
    batch_seconds, batched = _best_of(
        lambda: evaluate_early_classifier(model, test.series, test.labels, batch=True)
    )
    # Record the batched evaluation under the benchmark timer for the log.
    run_once(evaluate_early_classifier, model, test.series, test.labels)

    # Same answer: the equivalence suite pins per-outcome agreement; here the
    # aggregate metrics must be exactly equal, or the speedup is meaningless.
    assert batched == perrow

    speedup = perrow_seconds / batch_seconds
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x speedup on the "
        f"{test.series.shape[0]}-exemplar Table 1 style evaluation, measured "
        f"{speedup:.1f}x (per-row {perrow_seconds * 1e3:.1f} ms, "
        f"batched {batch_seconds * 1e3:.1f} ms)"
    )


@pytest.mark.parametrize("method", ["che", "kde"])
def test_bench_edsc_batched_vs_per_row(method, bench_metrics):
    prepared = table1.prepare(n_test_per_class=25)
    train, test = prepared.train, prepared.test
    conditions = (test, denormalize_dataset(test, seed=11, offset_range=(-1.0, 1.0)))
    model = EDSCClassifier(threshold_method=method).fit(train.series, train.labels)

    def evaluate(batch):
        return [
            evaluate_early_classifier(model, data.series, data.labels, batch=batch)
            for data in conditions
        ]

    batch_seconds, batched = _median_of(lambda: evaluate(True))
    perrow_seconds, perrow = _median_of(lambda: evaluate(False))

    assert batched == perrow

    n_rows = sum(data.series.shape[0] for data in conditions)
    speedup = perrow_seconds / batch_seconds
    bench_metrics.update(
        n_rows=n_rows,
        series_length=test.series.shape[1],
        n_shapelets=len(model.shapelets_),
        batched_rows_per_s=n_rows / batch_seconds,
        perrow_rows_per_s=n_rows / perrow_seconds,
        speedup=speedup,
        accuracy_normalized=batched[0].accuracy,
        accuracy_denormalized=batched[1].accuracy,
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x on EDSC-{method.upper()} over "
        f"{n_rows} Table 1 rows, measured {speedup:.1f}x (per-row "
        f"{perrow_seconds * 1e3:.1f} ms, batched {batch_seconds * 1e3:.1f} ms)"
    )
