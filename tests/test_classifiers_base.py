"""Unit tests for the early-classifier base machinery."""

import numpy as np
import pytest

from repro.classifiers.base import (
    BaseEarlyClassifier,
    BatchCheckpoint,
    EarlyPrediction,
    PartialPrediction,
    default_checkpoints,
)


class TestDefaultCheckpoints:
    def test_ends_at_series_length(self):
        checkpoints = default_checkpoints(150, 20)
        assert checkpoints[-1] == 150

    def test_strictly_increasing(self):
        checkpoints = default_checkpoints(150, 20)
        assert all(b > a for a, b in zip(checkpoints, checkpoints[1:]))

    def test_count_close_to_requested(self):
        checkpoints = default_checkpoints(200, 20)
        assert 15 <= len(checkpoints) <= 21

    @pytest.mark.parametrize("n_checkpoints", [1, 2, 5, 20])
    @pytest.mark.parametrize("series_length", [3, 4, 19, 60, 150, 301])
    def test_evenly_spaced_from_the_first_checkpoint_to_the_end(
        self, series_length, n_checkpoints
    ):
        checkpoints = default_checkpoints(series_length, n_checkpoints)
        assert checkpoints[0] == max(3, series_length // n_checkpoints)
        assert checkpoints[-1] == series_length
        assert len(checkpoints) <= n_checkpoints
        # Rounded even spacing: gaps of one or two neighbouring sizes.
        gaps = np.diff(checkpoints)
        if gaps.size:
            assert gaps.min() >= 1
            assert gaps.max() - gaps.min() <= 1

    def test_short_series(self):
        checkpoints = default_checkpoints(10, 20)
        assert checkpoints[-1] == 10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            default_checkpoints(1, 5)
        with pytest.raises(ValueError):
            default_checkpoints(100, 0)
        with pytest.raises(ValueError):
            # Too short for the first checkpoint, 3.
            default_checkpoints(2, 5)


class _TriggerAtLength(BaseEarlyClassifier):
    """Minimal concrete early classifier used to exercise the base class."""

    def __init__(self, trigger_at: int) -> None:
        super().__init__()
        self.trigger_at = trigger_at

    def fit(self, series, labels):
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        return self

    def predict_partial(self, prefix):
        arr = self._validate_prefix(prefix)
        return PartialPrediction(
            label=self.classes_[0],
            ready=arr.shape[0] >= self.trigger_at,
            confidence=1.0,
            prefix_length=arr.shape[0],
        )

    def _batch_partial_evaluators(self, data):
        # Row by row through predict_partial; every row is ready from
        # ``trigger_at`` on.
        return [
            BatchCheckpoint(
                length=length,
                partial=lambda i, length=length: self.predict_partial(data[i, :length]),
                ready=lambda rows, length=length: np.full(
                    len(rows), length >= self.trigger_at
                ),
            )
            for length in self.checkpoints()
            if length <= data.shape[1]
        ]


class TestBaseBehaviour:
    def _fitted(self, trigger_at=10, length=30):
        rng = np.random.default_rng(0)
        series = rng.standard_normal((6, length))
        labels = np.asarray(["a", "a", "a", "b", "b", "b"])
        return _TriggerAtLength(trigger_at).fit(series, labels)

    def test_unfitted_predict_raises(self):
        model = _TriggerAtLength(5)
        with pytest.raises(RuntimeError):
            model.predict_early(np.zeros(10))

    def test_fit_validations(self):
        model = _TriggerAtLength(5)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            model.fit(rng.standard_normal((1, 10)), ["a"])
        with pytest.raises(ValueError):
            model.fit(rng.standard_normal((4, 10)), ["a", "a", "a", "a"])
        with pytest.raises(ValueError):
            model.fit(rng.standard_normal(10), ["a"])

    def test_predict_early_triggers_at_expected_length(self):
        model = self._fitted(trigger_at=12)
        outcome = model.predict_early(np.zeros(30))
        assert outcome.triggered
        assert outcome.trigger_length == 12
        assert outcome.earliness == pytest.approx(12 / 30)

    def test_predict_early_without_trigger_uses_full_length(self):
        model = self._fitted(trigger_at=99)
        outcome = model.predict_early(np.zeros(30))
        assert not outcome.triggered
        assert outcome.trigger_length == 30
        assert outcome.earliness == 1.0

    def test_history_recorded_when_requested(self):
        model = self._fitted(trigger_at=5)
        outcome = model.predict_early(np.zeros(30), keep_history=True)
        assert len(outcome.history) == 5
        assert all(isinstance(p, PartialPrediction) for p in outcome.history)

    def test_history_empty_by_default(self):
        model = self._fitted(trigger_at=5)
        outcome = model.predict_early(np.zeros(30))
        assert outcome.history == ()

    def test_prefix_longer_than_training_rejected(self):
        model = self._fitted()
        with pytest.raises(ValueError):
            model.predict_early(np.zeros(31))

    def test_prefix_with_nan_rejected(self):
        model = self._fitted()
        bad = np.zeros(30)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            model.predict_early(bad)

    def test_predict_over_matrix(self):
        model = self._fitted(trigger_at=3)
        predictions = model.predict(np.zeros((4, 30)))
        assert predictions.shape == (4,)

    def test_score_and_earliness(self):
        model = self._fitted(trigger_at=6)
        series = np.zeros((4, 30))
        labels = np.asarray(["a", "a", "b", "b"])
        assert model.score(series, labels) == pytest.approx(0.5)
        assert model.average_earliness(series) == pytest.approx(6 / 30)

    def test_classes_property(self):
        model = self._fitted()
        assert model.classes_ == ("a", "b")
        assert model.train_length_ == 30


class TestEarlyPredictionDataclass:
    def test_earliness_property(self):
        prediction = EarlyPrediction(
            label="a", trigger_length=30, series_length=120, triggered=True, confidence=0.9
        )
        assert prediction.earliness == pytest.approx(0.25)
