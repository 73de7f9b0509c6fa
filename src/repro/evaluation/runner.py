"""Shared fit/score helpers used by the experiment modules and benchmarks."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.data.ucr_format import UCRDataset
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.evaluation.earliness import EarlinessAccuracyResult, evaluate_early_classifier

__all__ = ["fit_and_score", "prefix_accuracy_curve"]


def fit_and_score(classifier, train: UCRDataset, test: UCRDataset) -> EarlinessAccuracyResult:
    """Fit an early classifier on one dataset and evaluate it on another.

    The datasets are used exactly as given -- no re-normalisation happens
    here, so passing a denormalised test set reproduces the Table 1 setting.
    Evaluation runs through the classifier's vectorised
    ``predict_early_batch`` path (see
    :func:`repro.evaluation.earliness.evaluate_early_classifier`).
    """
    if train.series_length != test.series_length:
        raise ValueError("train and test must have the same series length")
    classifier.fit(train.series, train.labels)
    return evaluate_early_classifier(classifier, test.series, test.labels)


def prefix_accuracy_curve(
    train: UCRDataset,
    test: UCRDataset,
    prefix_lengths: Sequence[int],
    renormalize: bool = True,
) -> dict[int, float]:
    """Hold-out 1-NN accuracy as a function of the prefix length (Fig. 9).

    Parameters
    ----------
    train, test:
        Datasets in raw (not necessarily z-normalised) units.
    prefix_lengths:
        Prefix lengths to evaluate.
    renormalize:
        If ``True`` each truncated exemplar is re-z-normalised using only the
        retained prefix (the honest treatment, used by Fig. 9); if ``False``
        the raw prefix values are compared directly.

    Returns
    -------
    dict
        Mapping ``prefix_length -> accuracy``.

    Notes
    -----
    With ``renormalize=False`` the truncated series at length ``t + 1`` are
    the length-``t`` ones plus one sample, so the whole sweep is served by a
    single batched pass of
    :meth:`repro.distance.neighbors.KNeighborsTimeSeriesClassifier.predict_prefixes`
    (built on :func:`repro.distance.engine.batch_prefix_distances`).  With
    ``renormalize=True`` every value of every prefix changes at each length
    (the per-prefix mean and standard deviation move), so there is no
    shared-prefix structure to exploit and each length is evaluated with one
    vectorised distance matrix (``model.score`` answers the whole test set
    from it).
    """
    if train.series_length != test.series_length:
        raise ValueError("train and test must have the same series length")
    lengths = [int(length) for length in prefix_lengths]
    for length in lengths:
        if not 1 <= length <= train.series_length:
            raise ValueError(
                f"prefix length {length} outside [1, {train.series_length}]"
            )
    truth = np.asarray(test.labels)
    curve: dict[int, float] = {}
    if not renormalize and lengths == sorted(set(lengths)):
        model = KNeighborsTimeSeriesClassifier()
        model.fit(train.series, train.labels)
        predicted = model.predict_prefixes(test.series, lengths)
        for k, length in enumerate(lengths):
            curve[length] = float(np.mean(predicted[k] == truth))
        return curve
    for length in lengths:
        train_prefix = train.truncated(length, renormalize=renormalize)
        test_prefix = test.truncated(length, renormalize=renormalize)
        model = KNeighborsTimeSeriesClassifier()
        model.fit(train_prefix.series, train_prefix.labels)
        curve[length] = model.score(test_prefix.series, test_prefix.labels)
    return curve
