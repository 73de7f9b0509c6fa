"""Batch-vs-reference equivalence for the vectorised prediction engine.

``predict_early_batch`` answers a whole test set from batched matrix
kernels, and ``predict_early`` runs the same walk on a batch of one row.
The reference is the per-row walk in ``tests/oracles/walk.py``: one
``predict_partial`` per checkpoint (one prefix sweep with stable-argsort
statistics for ECTS).  Both library walks must agree with it -- outcome by
outcome and metric by metric -- for every classifier, across
z-normalisation modes, or the batched path has silently drifted (a
tie-break or voting regression).  This suite is the drift gate the CI
workflow runs explicitly.

All datasets here are fixed-seed, so the assertions are deterministic.  One
caveat for future failures: the two classifiers built on
``ProbabilisticEarlyClassifier`` (TEASER and the threshold model) evaluate a
whole batch with an (n x m) distance product, while the per-row walk
evaluates a batch of one row, (1 x m).  A BLAS product's bits for one row
depend on the shape of the call, so the two walks' confidences differ by up
to about 1.4e-13 (measured on the 150 GunPoint test rows plus 400 Gaussian
rows: 193 of the 550 TEASER confidences differed), and a confidence or
margin landing within that sliver of a stopping threshold would
legitimately shift one checkpoint.
If this gate ever trips with a one-checkpoint trigger_length difference and
a near-threshold confidence, suspect that razor's edge before suspecting
real drift.  ECTS is immune: its reference sweeps one row and the batched
walk sweeps the whole batch, and a sweep adds the squared terms in time
order whatever its row count, layout or step size, so their distances are
bit-identical (``tests/test_classifiers_ects.py`` also pins
``predict_partial``, which jumps straight to the prefix length, against the
batched checkpoint).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.classifiers.base import BaseEarlyClassifier, BatchCheckpoint, PartialPrediction
from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.classifiers.reliable import LDGReliableEarlyClassifier, ReliableEarlyClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.evaluation.earliness import evaluate_early_classifier

from oracles.walk import predict_early_reference
from tests.test_classifiers_reliable import FAST as RELIABLE_FAST

TOLERANCE = 1e-10

METRIC_FIELDS = (
    "accuracy",
    "earliness",
    "harmonic_mean",
    "trigger_rate",
    "mean_trigger_length",
    "n_exemplars",
)

#: Factories of every exported early classifier.  The threshold model runs
#: in three shapes of walk: a checkpoint every sample; two checkpoints, the
#: first a third of the way in (rows that do not commit there fall through
#: to the full length); and a strict threshold most rows never reach.
BATCHED_CLASSIFIERS = {
    "ects": lambda: ECTSClassifier(min_support=0.0),
    "relaxed-ects": lambda: RelaxedECTSClassifier(min_support=0.0),
    "teaser": lambda: TEASERClassifier(n_checkpoints=8),
    "threshold": lambda: ProbabilityThresholdClassifier(threshold=0.8, min_length=5),
    "threshold-sparse": lambda: ProbabilityThresholdClassifier(
        threshold=0.7, min_length=20, checkpoint_step=40
    ),
    "threshold-strict": lambda: ProbabilityThresholdClassifier(
        threshold=0.95, min_length=5, checkpoint_step=5
    ),
    "reliable": lambda: ReliableEarlyClassifier(**RELIABLE_FAST),
    "ldg": lambda: LDGReliableEarlyClassifier(n_local=8, **RELIABLE_FAST),
    "edsc-che": lambda: EDSCClassifier(
        threshold_method="che", position_step=6, max_candidates_per_class=60
    ),
    "edsc-kde": lambda: EDSCClassifier(
        threshold_method="kde", position_step=6, max_candidates_per_class=60
    ),
}

#: The classifiers built on ``ProbabilisticEarlyClassifier``: one evaluator
#: answers their batched walk and their ``predict_partial``.
PROBABILISTIC_CLASSIFIERS = ("teaser", "threshold", "threshold-sparse", "threshold-strict")

#: Shapelet classifiers: the batched walk reads first-match lengths.
SHAPELET_CLASSIFIERS = ("edsc-che", "edsc-kde")

#: Monte Carlo classifiers: their noise is owned by each (row, checkpoint),
#: so an outcome must not depend on call history or batch composition.
MONTE_CARLO_CLASSIFIERS = ("reliable", "ldg")


def _assert_outcomes_match(batched, reference):
    assert len(batched) == len(reference)
    for got, want in zip(batched, reference):
        assert got.label == want.label
        assert got.trigger_length == want.trigger_length
        assert got.series_length == want.series_length
        assert got.triggered == want.triggered
        assert abs(got.confidence - want.confidence) <= TOLERANCE


def _reference(model, rows, keep_history=False):
    return [predict_early_reference(model, row, keep_history) for row in rows]


def _assert_histories_match(model, rows):
    reference = _reference(model, rows, keep_history=True)
    batched = model.predict_early_batch(rows, keep_history=True)
    per_row = [model.predict_early(row, keep_history=True) for row in rows]
    for outcomes in (batched, per_row):
        _assert_outcomes_match(outcomes, reference)
        for got, want in zip(outcomes, reference):
            assert len(got.history) == len(want.history)
            for g, w in zip(got.history, want.history):
                assert g.label == w.label
                assert g.ready == w.ready
                assert g.prefix_length == w.prefix_length
                assert abs(g.confidence - w.confidence) <= TOLERANCE


class TestPredictEarlyBatchEquivalence:
    @pytest.mark.parametrize("name", sorted(BATCHED_CLASSIFIERS))
    @pytest.mark.parametrize("znorm", ["znormalized", "raw"])
    def test_outcomes_match_per_row_reference(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        train, test = gunpoint_small if znorm == "znormalized" else gunpoint_small_raw
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        reference = _reference(model, test.series)
        _assert_outcomes_match(model.predict_early_batch(test.series), reference)
        _assert_outcomes_match([model.predict_early(row) for row in test.series], reference)

    @pytest.mark.parametrize("name", sorted(BATCHED_CLASSIFIERS))
    def test_metrics_match_per_row_reference(self, name, gunpoint_small):
        train, test = gunpoint_small
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        fast = evaluate_early_classifier(model, test.series, test.labels, batch=True)
        slow = evaluate_early_classifier(model, test.series, test.labels, batch=False)
        for field in METRIC_FIELDS:
            assert abs(getattr(fast, field) - getattr(slow, field)) <= TOLERANCE, field

    def test_batch_size_chunking_is_invisible(self, gunpoint_small):
        train, test = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        whole = model.predict_early_batch(test.series)
        chunked = model.predict_early_batch(test.series, batch_size=3)
        _assert_outcomes_match(chunked, whole)

    @pytest.mark.parametrize("name", PROBABILISTIC_CLASSIFIERS)
    @pytest.mark.parametrize("znorm", ["znormalized", "raw"])
    def test_keep_history_matches_per_row(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        train, test = gunpoint_small if znorm == "znormalized" else gunpoint_small_raw
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        _assert_histories_match(model, test.series[:6])

    @pytest.mark.parametrize("name", SHAPELET_CLASSIFIERS)
    @pytest.mark.parametrize("znorm", ["znormalized", "raw"])
    def test_shapelet_keep_history_matches_per_row(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        train, test = gunpoint_small if znorm == "znormalized" else gunpoint_small_raw
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        _assert_histories_match(model, test.series[:6])

    @pytest.mark.parametrize("name", SHAPELET_CLASSIFIERS)
    def test_shapelet_longer_than_the_batch_never_fires(self, name, gunpoint_small):
        train, test = gunpoint_small
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        short = test.series[:, :-1]
        without = model.predict_early_batch(short)
        # A full-length shapelet that matches anything and outranks the rest.
        model.shapelets_.append(
            dataclasses.replace(
                model.shapelets_[0],
                values=train.series[0],
                threshold=np.inf,
                utility=2.0,
                precision=0.5,
            )
        )
        assert np.all(model._first_match_lengths(short)[-1] > short.shape[1])
        batched = model.predict_early_batch(short)
        _assert_outcomes_match(batched, _reference(model, short))
        _assert_outcomes_match(batched, without)

    def test_predict_and_scores_ride_the_batched_path(self, gunpoint_small):
        train, test = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        reference = _reference(model, test.series)
        assert np.array_equal(
            model.predict(test.series), np.asarray([o.label for o in reference])
        )
        assert model.average_earliness(test.series) == pytest.approx(
            float(np.mean([o.earliness for o in reference])), abs=TOLERANCE
        )


@pytest.mark.parametrize("name", MONTE_CARLO_CLASSIFIERS)
@pytest.mark.parametrize("znorm", ["znormalized", "raw"])
class TestCallHistoryInvariance:
    """A Monte Carlo outcome depends on its row alone."""

    @staticmethod
    def _fitted(name, znorm, gunpoint_small, gunpoint_small_raw):
        train, test = gunpoint_small if znorm == "znormalized" else gunpoint_small_raw
        return BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels), test.series

    def test_repeated_call_is_identical(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        model, rows = self._fitted(name, znorm, gunpoint_small, gunpoint_small_raw)
        first = model.predict_early_batch(rows)
        _assert_outcomes_match(model.predict_early_batch(rows), first)

    def test_row_order_is_irrelevant(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        model, rows = self._fitted(name, znorm, gunpoint_small, gunpoint_small_raw)
        forward = model.predict_early_batch(rows)
        backward = model.predict_early_batch(rows[::-1])[::-1]
        _assert_outcomes_match(backward, forward)

    def test_batch_mates_are_irrelevant(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        model, rows = self._fitted(name, znorm, gunpoint_small, gunpoint_small_raw)
        whole = model.predict_early_batch(rows)
        # The odd rows alone, then mixed with rows of the other condition.
        _assert_outcomes_match(model.predict_early_batch(rows[1::2]), whole[1::2])
        other = (gunpoint_small_raw if znorm == "znormalized" else gunpoint_small)[1]
        mixed = model.predict_early_batch(np.vstack([other.series[:7], rows[:5]]))
        _assert_outcomes_match(mixed[7:], whole[:5])
        _assert_outcomes_match(model.predict_early_batch(rows, batch_size=4), whole)

    def test_keep_history_matches_per_row(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        model, rows = self._fitted(name, znorm, gunpoint_small, gunpoint_small_raw)
        _assert_histories_match(model, rows[:6])


class TestPredictEarlyBatchValidation:
    def test_empty_batch_returns_empty_list(self, gunpoint_small):
        train, _ = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        assert model.predict_early_batch(np.empty((0, train.series_length))) == []

    def test_single_series_promoted_to_batch_of_one(self, gunpoint_small):
        train, test = gunpoint_small
        model = ECTSClassifier().fit(train.series, train.labels)
        outcomes = model.predict_early_batch(test.series[0])
        _assert_outcomes_match(outcomes, _reference(model, test.series[:1]))

    def test_rejects_unfitted_and_bad_input(self, gunpoint_small):
        train, test = gunpoint_small
        with pytest.raises(RuntimeError):
            ECTSClassifier().predict_early_batch(test.series)
        model = ECTSClassifier().fit(train.series, train.labels)
        with pytest.raises(ValueError):
            model.predict_early_batch(test.series[:, :0])
        with pytest.raises(ValueError):
            model.predict_early_batch(np.zeros((2, train.series_length + 1)))
        with pytest.raises(ValueError):
            model.predict_early_batch(np.full((2, train.series_length), np.nan))
        with pytest.raises(ValueError):
            model.predict_early_batch(test.series, batch_size=0)

    def test_too_short_batch_raises_like_per_row(self, gunpoint_small):
        train, test = gunpoint_small
        # The first checkpoint, min_length, lies past the cut.
        cut = train.series_length // 2
        model = ProbabilityThresholdClassifier(min_length=cut + 1).fit(
            train.series, train.labels
        )
        short = test.series[:, :cut]
        with pytest.raises(ValueError):
            model.predict_early_batch(short)
        with pytest.raises(ValueError):
            model.predict_early(short[0])


class _NeverReady(BaseEarlyClassifier):
    """Minimal early classifier whose stopping rule never fires."""

    def fit(self, series, labels):
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        return self

    def predict_partial(self, prefix):
        arr = self._validate_prefix(prefix)
        return PartialPrediction(
            label=self.classes_[0], ready=False, confidence=0.0, prefix_length=arr.shape[0]
        )

    def _batch_partial_evaluators(self, data):
        # A vectorised ``ready`` sends the batched walk down its first-ready
        # path, whose rows all fall through to the last checkpoint here.
        return [
            BatchCheckpoint(
                length=length,
                partial=lambda i, length=length: self.predict_partial(data[i, :length]),
                ready=lambda rows: np.zeros(len(rows), dtype=bool),
            )
            for length in self.checkpoints()
            if length <= data.shape[1]
        ]


class TestTriggerlessBatch:
    def test_never_triggering_classifier_agrees(self, gunpoint_small):
        train, test = gunpoint_small
        model = _NeverReady().fit(train.series, train.labels)
        batched = model.predict_early_batch(test.series)
        _assert_outcomes_match(batched, _reference(model, test.series))
        assert all(not outcome.triggered for outcome in batched)
        assert all(
            outcome.trigger_length == test.series_length for outcome in batched
        )
