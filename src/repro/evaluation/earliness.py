"""Earliness metrics and joint accuracy/earliness evaluation.

The ETSC literature reports, besides accuracy, the *earliness* of a model --
the mean fraction of each exemplar observed before the trigger -- and often
combines the two into a harmonic mean (e.g. TEASER's model selection).  These
helpers compute all three for any :class:`~repro.classifiers.base.BaseEarlyClassifier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "harmonic_mean_accuracy_earliness",
    "EarlinessAccuracyResult",
    "evaluate_early_classifier",
]


def harmonic_mean_accuracy_earliness(accuracy: float, earliness: float) -> float:
    """Harmonic mean of accuracy and (1 - earliness).

    ``earliness`` is the mean fraction of the exemplar observed, so lower is
    better; the harmonic mean therefore combines accuracy with ``1 -
    earliness`` (both "higher is better"), which is the convention TEASER uses
    for selecting its consistency parameter.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must be in [0, 1]")
    if not 0.0 <= earliness <= 1.0:
        raise ValueError("earliness must be in [0, 1]")
    timeliness = 1.0 - earliness
    if accuracy + timeliness == 0.0:
        return 0.0
    return 2.0 * accuracy * timeliness / (accuracy + timeliness)


@dataclass(frozen=True)
class EarlinessAccuracyResult:
    """Joint evaluation of an early classifier on one test set.

    Attributes
    ----------
    accuracy:
        Fraction of exemplars classified correctly (at whatever point the
        model committed).
    earliness:
        Mean fraction of each exemplar observed before committing.
    harmonic_mean:
        Harmonic mean of accuracy and (1 - earliness).
    trigger_rate:
        Fraction of exemplars on which the stopping rule actually fired
        (the rest were classified only because the exemplar ran out).
    mean_trigger_length:
        Mean prefix length (in samples) at the commitment point.
    n_exemplars:
        Number of test exemplars evaluated.
    """

    accuracy: float
    earliness: float
    harmonic_mean: float
    trigger_rate: float
    mean_trigger_length: float
    n_exemplars: int


def _require_unique_ids(ids: Sequence, what: str) -> None:
    """Raise with a clear message when ``ids`` contains duplicates."""
    seen: set = set()
    duplicates: list = []
    for value in ids:
        if value in seen and value not in duplicates:
            duplicates.append(value)
        seen.add(value)
    if duplicates:
        raise ValueError(
            f"duplicate {what} would double-count those exemplars in the "
            f"pooled metrics: {duplicates!r}"
        )


def evaluate_early_classifier(
    classifier,
    series: np.ndarray,
    labels: Sequence,
    batch: bool = True,
    ids: Sequence | None = None,
) -> EarlinessAccuracyResult:
    """Run an early classifier over a test set and collect the joint metrics.

    The whole test set is handed to the classifier's vectorised
    ``predict_early_batch`` entry point when it has one (every
    :class:`~repro.classifiers.base.BaseEarlyClassifier` does).
    ``batch=False`` calls ``predict_early`` row by row instead: the batched
    walk on a batch of one row, with the per-row stopping rule at every
    checkpoint.  The equivalence suite asserts the two agree on every
    metric, and the batch-vs-per-row speed gates time one against the
    other.

    An empty test set is well-defined: every metric is reported as ``0.0``
    with ``n_exemplars == 0`` (rather than propagating NaN means), and the
    batched and per-row paths agree on that convention.

    Parameters
    ----------
    classifier:
        A fitted :class:`~repro.classifiers.base.BaseEarlyClassifier` (any
        object with ``predict_early`` works; ``predict_early_batch`` is used
        when present).
    series:
        2-D ``(n_exemplars, length)`` array of univariate test exemplars, or
        3-D ``(n_exemplars, length, n_channels)`` multichannel exemplars
        (axis 0 = exemplar, axis 1 = time, axis 2 = channel).
    labels:
        Ground-truth labels, one per exemplar.
    batch:
        Use the vectorised batch path when available (default).  ``False``
        walks one row at a time through ``predict_early``.
    ids:
        Optional per-exemplar identities, one per row.  When given, they
        must be unique: a duplicate id means the same exemplar was handed
        over twice, which would silently double-count it in every pooled
        metric.  Duplicates raise ``ValueError`` naming the offending ids.
    """
    data = np.asarray(series, dtype=float)
    if data.ndim == 3 and data.shape[2] == 1:
        data = data[:, :, 0]
    if data.ndim not in (2, 3):
        raise ValueError(
            "series must be 2-D (n_exemplars, length) or 3-D "
            f"(n_exemplars, length, n_channels); got shape {data.shape}"
        )
    truth = np.asarray(labels)
    if truth.shape[0] != data.shape[0]:
        raise ValueError("labels must have one entry per exemplar")
    if ids is not None:
        if len(ids) != data.shape[0]:
            raise ValueError("ids must have one entry per exemplar")
        _require_unique_ids(ids, "exemplar ids")
    if data.shape[0] == 0:
        return EarlinessAccuracyResult(
            accuracy=0.0,
            earliness=0.0,
            harmonic_mean=0.0,
            trigger_rate=0.0,
            mean_trigger_length=0.0,
            n_exemplars=0,
        )

    if batch and hasattr(classifier, "predict_early_batch"):
        outcomes = classifier.predict_early_batch(data)
    else:
        outcomes = [classifier.predict_early(row) for row in data]
    predictions = [outcome.label for outcome in outcomes]
    earliness_values = [outcome.earliness for outcome in outcomes]
    trigger_lengths = [outcome.trigger_length for outcome in outcomes]
    triggered_flags = [outcome.triggered for outcome in outcomes]

    accuracy = float(np.mean(np.asarray(predictions) == truth))
    earliness = float(np.mean(earliness_values))
    return EarlinessAccuracyResult(
        accuracy=accuracy,
        earliness=earliness,
        harmonic_mean=harmonic_mean_accuracy_earliness(accuracy, earliness),
        trigger_rate=float(np.mean(triggered_flags)),
        mean_trigger_length=float(np.mean(trigger_lengths)),
        n_exemplars=int(data.shape[0]),
    )
