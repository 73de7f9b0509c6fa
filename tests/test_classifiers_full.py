"""Unit tests for the plain-classification baselines."""

import pytest

from repro.classifiers.full import FixedTruncationClassifier, FullLengthClassifier


class TestFullLengthClassifier:
    def test_never_triggers_before_full_length(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FullLengthClassifier().fit(series, labels)
        outcome = model.predict_early(series[0])
        assert outcome.trigger_length == series.shape[1]
        assert outcome.earliness == 1.0

    def test_checkpoints_is_only_full_length(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FullLengthClassifier().fit(series, labels)
        assert model.checkpoints() == [series.shape[1]]

    def test_accuracy_on_separable_problem(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FullLengthClassifier().fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) == 1.0

    def test_partial_prediction_not_ready_early(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FullLengthClassifier().fit(series, labels)
        partial = model.predict_partial(series[0][:10])
        assert not partial.ready


class TestFixedTruncationClassifier:
    def test_explicit_trigger_length(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FixedTruncationClassifier(trigger_length=12).fit(series, labels)
        outcome = model.predict_early(series[0])
        assert outcome.triggered
        assert outcome.trigger_length == 12

    def test_explicit_trigger_length_validated(self, tiny_two_class):
        series, labels = tiny_two_class
        with pytest.raises(ValueError):
            FixedTruncationClassifier(trigger_length=0)
        with pytest.raises(ValueError):
            FixedTruncationClassifier(trigger_length=999).fit(series, labels)

    @pytest.mark.parametrize("trigger_length", [1, 2])
    def test_trigger_length_below_the_model_minimum_rejected_at_fit(
        self, tiny_two_class, trigger_length
    ):
        # The model cannot classify a prefix shorter than 3 samples, so such a
        # trigger length would make every prediction fail.
        series, labels = tiny_two_class
        model = FixedTruncationClassifier(trigger_length=trigger_length)
        with pytest.raises(ValueError, match="min_length of 3"):
            model.fit(series, labels)

    def test_shortest_allowed_trigger_length_predicts(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FixedTruncationClassifier(trigger_length=3).fit(series, labels)
        assert [o.trigger_length for o in model.predict_early_batch(series[:4])] == [3] * 4
        assert model.predict_early(series[0]).trigger_length == 3

    def test_auto_selected_length_is_shorter_than_full(self, gunpoint_medium_raw):
        # On GunPoint-like data, the informative part ends well before the
        # exemplar does, so the auto-selected truncation should be < length.
        train, _ = gunpoint_medium_raw
        model = FixedTruncationClassifier(tolerance=0.02).fit(
            train.z_normalized().series, train.labels
        )
        assert model.trigger_length_ is not None
        assert model.trigger_length_ < train.series_length

    def test_accuracy_maintained_on_separable_problem(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FixedTruncationClassifier().fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) >= 0.9

    def test_earliness_below_one(self, tiny_two_class):
        series, labels = tiny_two_class
        model = FixedTruncationClassifier().fit(series[::2], labels[::2])
        assert model.average_earliness(series[1::2]) < 1.0
