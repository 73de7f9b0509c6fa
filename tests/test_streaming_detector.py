"""Unit tests for the streaming early detector."""

import numpy as np
import pytest

from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.stream import StreamComposer
from repro.streaming.detector import StreamingEarlyDetector

from oracles.streaming import prepare_window


@pytest.fixture(scope="module")
def fitted_classifier(tiny_two_class):
    series, labels = tiny_two_class
    model = ProbabilityThresholdClassifier(threshold=0.85, min_length=6, checkpoint_step=2)
    return model.fit(series, labels)


@pytest.fixture(scope="module")
def annotated_stream(tiny_two_class):
    series, labels = tiny_two_class
    composer = StreamComposer(
        background=np.zeros(2_000), gap_range=(60, 120), level_match=False, seed=3
    )
    exemplars = [series[0], series[10], series[1], series[11]]
    event_labels = [labels[0], labels[10], labels[1], labels[11]]
    return composer.compose(exemplars, event_labels)


class TestConstruction:
    def test_requires_fitted_classifier(self, tiny_two_class):
        series, labels = tiny_two_class
        with pytest.raises(ValueError):
            StreamingEarlyDetector(ProbabilityThresholdClassifier())

    def test_requires_early_classifier_type(self):
        with pytest.raises(TypeError):
            StreamingEarlyDetector(object())

    def test_parameter_validation(self, fitted_classifier):
        with pytest.raises(ValueError):
            StreamingEarlyDetector(fitted_classifier, stride=0)
        with pytest.raises(ValueError):
            StreamingEarlyDetector(fitted_classifier, normalization="zscore")
        with pytest.raises(ValueError):
            StreamingEarlyDetector(fitted_classifier, max_alarms=0)

    def test_window_length_from_classifier(self, fitted_classifier, tiny_two_class):
        series, _ = tiny_two_class
        detector = StreamingEarlyDetector(fitted_classifier)
        assert detector.window_length == series.shape[1]


class TestDetection:
    def test_detects_embedded_events(self, fitted_classifier, annotated_stream):
        detector = StreamingEarlyDetector(fitted_classifier, stride=4, normalization="none")
        alarms = detector.detect(annotated_stream)
        assert alarms  # the embedded bumps are found
        for alarm in alarms:
            assert 0 <= alarm.position < len(annotated_stream)
            assert alarm.candidate_start <= alarm.position
            assert alarm.label in fitted_classifier.classes_

    def test_alarm_positions_increasing_and_refractory(self, fitted_classifier, annotated_stream):
        detector = StreamingEarlyDetector(
            fitted_classifier, stride=4, refractory=30, normalization="none"
        )
        alarms = detector.detect(annotated_stream)
        positions = [a.position for a in alarms]
        assert positions == sorted(positions)
        assert all(b - a >= 30 for a, b in zip(positions, positions[1:]))

    def test_accepts_plain_array(self, fitted_classifier):
        rng = np.random.default_rng(0)
        alarms = StreamingEarlyDetector(fitted_classifier, stride=8).detect(
            rng.standard_normal(500) * 0.01
        )
        assert isinstance(alarms, list)

    def test_stream_shorter_than_window_rejected(self, fitted_classifier):
        with pytest.raises(ValueError):
            StreamingEarlyDetector(fitted_classifier).detect(np.zeros(10))

    def test_max_alarms_caps_output(self, fitted_classifier, annotated_stream):
        detector = StreamingEarlyDetector(
            fitted_classifier, stride=4, normalization="none", max_alarms=1, refractory=0
        )
        alarms = detector.detect(annotated_stream)
        assert len(alarms) <= 1

    def test_window_normalization_mode(self, fitted_classifier, annotated_stream):
        detector = StreamingEarlyDetector(fitted_classifier, stride=4, normalization="window")
        alarms = detector.detect(annotated_stream)
        assert isinstance(alarms, list)

    def test_causal_normalization_mode(self, fitted_classifier, annotated_stream):
        detector = StreamingEarlyDetector(fitted_classifier, stride=8, normalization="causal")
        alarms = detector.detect(annotated_stream)
        assert isinstance(alarms, list)

    def test_prepare_window_none_is_identity(self, fitted_classifier):
        detector = StreamingEarlyDetector(fitted_classifier, normalization="none")
        window = np.arange(40.0)
        np.testing.assert_allclose(prepare_window(detector, window), window)

    def test_prepare_window_window_mode_is_znormalised(self, fitted_classifier):
        detector = StreamingEarlyDetector(fitted_classifier, normalization="window")
        window = np.arange(40.0) + 100.0
        prepared = prepare_window(detector, window)
        assert abs(prepared.mean()) < 1e-9
        assert abs(prepared.std() - 1.0) < 1e-9

    def test_prepare_window_causal_uses_only_past(self, fitted_classifier):
        detector = StreamingEarlyDetector(fitted_classifier, normalization="causal")
        window = np.arange(40.0)
        modified = window.copy()
        modified[30:] += 1000.0
        a = prepare_window(detector, window)
        b = prepare_window(detector, modified)
        np.testing.assert_allclose(a[:30], b[:30])
