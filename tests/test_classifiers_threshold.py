"""Unit tests for the probability-threshold early classifier."""

import pytest

from repro.classifiers.threshold import ProbabilityThresholdClassifier


class TestConstruction:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            ProbabilityThresholdClassifier(threshold=0.5)
        with pytest.raises(ValueError):
            ProbabilityThresholdClassifier(threshold=1.5)

    def test_other_parameter_validation(self):
        with pytest.raises(ValueError):
            ProbabilityThresholdClassifier(min_length=0)
        with pytest.raises(ValueError):
            ProbabilityThresholdClassifier(checkpoint_step=0)

    def test_min_length_must_be_less_than_series(self, tiny_two_class):
        series, labels = tiny_two_class
        with pytest.raises(ValueError):
            ProbabilityThresholdClassifier(min_length=series.shape[1]).fit(series, labels)


class TestBehaviour:
    def test_triggers_early_on_separable_problem(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ProbabilityThresholdClassifier(threshold=0.8, min_length=4).fit(
            series[::2], labels[::2]
        )
        outcome = model.predict_early(series[1])
        assert outcome.triggered
        assert outcome.trigger_length < series.shape[1]
        assert outcome.confidence >= 0.8

    def test_accuracy_on_separable_problem(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ProbabilityThresholdClassifier(threshold=0.8, min_length=4).fit(
            series[::2], labels[::2]
        )
        assert model.score(series[1::2], labels[1::2]) == 1.0

    def test_higher_threshold_triggers_no_earlier(self, gunpoint_medium):
        train, test = gunpoint_medium
        low = ProbabilityThresholdClassifier(threshold=0.7, min_length=10, checkpoint_step=5)
        high = ProbabilityThresholdClassifier(threshold=0.95, min_length=10, checkpoint_step=5)
        low.fit(train.series, train.labels)
        high.fit(train.series, train.labels)
        low_earliness = low.average_earliness(test.series[:10])
        high_earliness = high.average_earliness(test.series[:10])
        assert high_earliness >= low_earliness - 1e-9

    def test_partial_before_min_length_not_ready(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ProbabilityThresholdClassifier(threshold=0.8, min_length=10).fit(series, labels)
        partial = model.predict_partial(series[0][:5])
        assert not partial.ready
        assert sum(partial.probabilities.values()) == pytest.approx(1.0)

    def test_checkpoints_respect_step(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ProbabilityThresholdClassifier(min_length=5, checkpoint_step=7).fit(series, labels)
        checkpoints = model.checkpoints()
        assert checkpoints[0] == 5
        assert checkpoints[-1] == series.shape[1]
        assert all(b - a in (7, (series.shape[1] - 5) % 7 or 7) for a, b in zip(checkpoints, checkpoints[1:]))

    def test_confidence_at_trigger_meets_threshold(self, gunpoint_medium):
        train, test = gunpoint_medium
        model = ProbabilityThresholdClassifier(threshold=0.85, min_length=10, checkpoint_step=5)
        model.fit(train.series, train.labels)
        outcome = model.predict_early(test.series[0])
        if outcome.triggered:
            assert outcome.confidence >= 0.85
