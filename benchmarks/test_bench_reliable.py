"""Benchmark record for batched Reliable / LDG inference.

Table 1's "Rel. Class." and "LDG Rel. Class." rows estimate the reliability
of every prefix decision by Monte Carlo.  Their batched path evaluates each
checkpoint for all rows that have not triggered with one GEMM per class
(per neighbour group for LDG); the per-row ``predict_early`` walk runs
the same evaluator on one row at a time.  Because each prefix owns its
Monte Carlo noise, the two must give identical metrics.

The record holds both sides' throughput in test rows per second, their
ratio and the Monte Carlo sample count, at Table 1's full classifier
settings on its 50-row GunPoint test split.  Each side is the median of
``REPEATS`` timed evaluations.  No speedup is gated: both walks run the same
evaluator on the same class models, so the ratio measures only what
batching adds.

It also holds the class-model fits made while fitting the classifier and
evaluating the split once batched, their total seconds and ``fits_per_s``,
timed by wrapping ``_fit_gaussians``.  Reliable fits one Gaussian per class;
LDG also refits them for every neighbour group at every checkpoint, which
is why a class model keeps its covariance as diagonal plus low rank and
never factors it at the series' length.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.classifiers.reliable import LDGReliableEarlyClassifier, ReliableEarlyClassifier
from repro.evaluation.earliness import evaluate_early_classifier
from repro.experiments import table1

REPEATS = 3

CLASSIFIERS = {
    "reliable": lambda: ReliableEarlyClassifier(tau=0.1),
    "ldg": lambda: LDGReliableEarlyClassifier(tau=0.1),
}


def _median_of(function):
    """Median wall-clock time over ``REPEATS`` runs, and the last result."""
    seconds = []
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = function()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def _timed_class_model_fits(monkeypatch, name, train, test) -> tuple[int, float]:
    """Class-model fits, and their seconds, in one fit and one batched evaluation."""
    fit_gaussians = ReliableEarlyClassifier._fit_gaussians
    fits = 0
    seconds = 0.0

    def timed_fit(self, data, labels):
        nonlocal fits, seconds
        started = time.perf_counter()
        models = fit_gaussians(self, data, labels)
        seconds += time.perf_counter() - started
        fits += len(models)
        return models

    with monkeypatch.context() as patch:
        patch.setattr(ReliableEarlyClassifier, "_fit_gaussians", timed_fit)
        model = CLASSIFIERS[name]().fit(train.series, train.labels)
        evaluate_early_classifier(model, test.series, test.labels, batch=True)
    return fits, seconds


@pytest.mark.parametrize("name", sorted(CLASSIFIERS))
def test_bench_reliable_batched_vs_per_row(name, bench_metrics, monkeypatch):
    prepared = table1.prepare(n_test_per_class=25)
    train, test = prepared.train, prepared.test
    model = CLASSIFIERS[name]().fit(train.series, train.labels)

    batch_seconds, batched = _median_of(
        lambda: evaluate_early_classifier(model, test.series, test.labels, batch=True)
    )
    perrow_seconds, perrow = _median_of(
        lambda: evaluate_early_classifier(model, test.series, test.labels, batch=False)
    )

    assert batched == perrow
    fits, fit_seconds = _timed_class_model_fits(monkeypatch, name, train, test)

    n_rows = test.series.shape[0]
    bench_metrics.update(
        n_rows=n_rows,
        series_length=test.series.shape[1],
        n_monte_carlo=model.n_monte_carlo,
        batched_rows_per_s=n_rows / batch_seconds,
        perrow_rows_per_s=n_rows / perrow_seconds,
        speedup=perrow_seconds / batch_seconds,
        accuracy=batched.accuracy,
        earliness=batched.earliness,
        class_model_fits=fits,
        class_model_fit_s=fit_seconds,
        fits_per_s=fits / fit_seconds,
    )
