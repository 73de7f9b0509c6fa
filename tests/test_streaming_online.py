"""Equivalence and behaviour tests for the online streaming engine.

The load-bearing guarantee: :class:`repro.streaming.online.StreamingSession`
produces the *identical* alarm list to the offline reference loop
(:func:`oracles.streaming.detect_reference`) -- exact ``position``,
``candidate_start``, ``label`` and ``prefix_length``, confidence to within
1e-10 -- across all three normalisation modes, strides, refractory settings
and ``max_alarms`` truncation, and for classifiers exercising every walk
flavour: a lazily evaluated probability evaluator (probability threshold),
ECTS's shared prefix sweep with its answer arrays, and the stateful streak
trigger rule (TEASER).

:class:`~repro.classifiers.base.ClassifierStream` is pinned to the per-row
walk oracle (``tests/oracles/walk.py``) for every exported classifier, fed
sample by sample and in blocks.
"""

import numpy as np
import pytest

from repro.classifiers.base import ClassifierStream
from repro.classifiers.ects import ECTSClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.stream import StreamComposer
from repro.streaming.detector import StreamingEarlyDetector
from repro.streaming.online import StreamingSession

from oracles.streaming import detect_reference
from oracles.walk import predict_early_reference
from tests.test_batch_predict import BATCHED_CLASSIFIERS, _assert_outcomes_match


def assert_alarms_equivalent(reference, candidate):
    """Field-by-field alarm equality; confidence to float round-off.

    Confidence may differ at ~1e-15 in causal mode (running Welford
    statistics versus the naive per-prefix recomputation); everything else
    must be exactly equal.
    """
    assert len(candidate) == len(reference)
    for expected, actual in zip(reference, candidate):
        assert actual.position == expected.position
        assert actual.candidate_start == expected.candidate_start
        assert actual.label == expected.label
        assert actual.prefix_length == expected.prefix_length
        assert abs(actual.confidence - expected.confidence) <= 1e-10


@pytest.fixture(scope="module")
def fitted_classifier(tiny_two_class):
    series, labels = tiny_two_class
    model = ProbabilityThresholdClassifier(threshold=0.85, min_length=6, checkpoint_step=2)
    return model.fit(series, labels)


@pytest.fixture(scope="module")
def ects_classifier(tiny_two_class):
    series, labels = tiny_two_class
    return ECTSClassifier().fit(series, labels)


@pytest.fixture(scope="module")
def teaser_classifier(tiny_two_class):
    series, labels = tiny_two_class
    return TEASERClassifier(n_checkpoints=8).fit(series, labels)


@pytest.fixture(scope="module")
def annotated_stream(tiny_two_class):
    series, labels = tiny_two_class
    composer = StreamComposer(
        background=np.zeros(2_000), gap_range=(60, 120), level_match=False, seed=3
    )
    exemplars = [series[0], series[10], series[1], series[11]]
    event_labels = [labels[0], labels[10], labels[1], labels[11]]
    return composer.compose(exemplars, event_labels)


@pytest.fixture(scope="module")
def noisy_stream(annotated_stream):
    """The annotated stream with background jitter: more alarm churn."""
    rng = np.random.default_rng(11)
    return annotated_stream.values + 0.02 * rng.standard_normal(len(annotated_stream))


class TestEquivalence:
    @pytest.mark.parametrize("normalization", ["none", "window", "causal"])
    @pytest.mark.parametrize("stride", [3, 8])
    def test_engine_matches_reference(
        self, fitted_classifier, annotated_stream, normalization, stride
    ):
        detector = StreamingEarlyDetector(
            fitted_classifier, stride=stride, normalization=normalization
        )
        assert_alarms_equivalent(
            detect_reference(detector, annotated_stream), detector.detect(annotated_stream)
        )

    @pytest.mark.parametrize("refractory", [0, 15, 60])
    def test_refractory_equivalence(self, fitted_classifier, noisy_stream, refractory):
        detector = StreamingEarlyDetector(
            fitted_classifier, stride=4, normalization="none", refractory=refractory
        )
        reference = detect_reference(detector, noisy_stream)
        assert_alarms_equivalent(reference, detector.detect(noisy_stream))
        positions = [a.position for a in reference]
        assert all(b - a >= refractory for a, b in zip(positions, positions[1:]))

    @pytest.mark.parametrize("max_alarms", [1, 2, 5])
    def test_max_alarms_truncation(self, fitted_classifier, noisy_stream, max_alarms):
        detector = StreamingEarlyDetector(
            fitted_classifier,
            stride=4,
            normalization="causal",
            refractory=0,
            max_alarms=max_alarms,
        )
        reference = detect_reference(detector, noisy_stream)
        assert len(reference) <= max_alarms
        assert_alarms_equivalent(reference, detector.detect(noisy_stream))

    @pytest.mark.parametrize("normalization", ["none", "causal"])
    def test_ects_engine_backed_candidates(
        self, ects_classifier, annotated_stream, normalization
    ):
        """Concurrent candidates each ride an independent prefix sweep."""
        detector = StreamingEarlyDetector(
            ects_classifier, stride=8, normalization=normalization
        )
        assert_alarms_equivalent(
            detect_reference(detector, annotated_stream), detector.detect(annotated_stream)
        )

    def test_teaser_streak_rule(self, teaser_classifier, annotated_stream):
        """The stateful consecutive-agreement rule survives the per-candidate walk."""
        detector = StreamingEarlyDetector(
            teaser_classifier, stride=8, normalization="window"
        )
        assert_alarms_equivalent(
            detect_reference(detector, annotated_stream), detector.detect(annotated_stream)
        )

    def test_tail_candidates_never_alarm(self, fitted_classifier, annotated_stream):
        """Starts whose window cannot complete are discarded, as offline."""
        # Cut the stream so it ends mid-event: the online engine sees the
        # event onset in still-open candidates but must not confirm them.
        event = annotated_stream.events[-1]
        values = annotated_stream.values[: event.start + 10]
        detector = StreamingEarlyDetector(fitted_classifier, stride=4, normalization="none")
        assert_alarms_equivalent(detect_reference(detector, values), detector.detect(values))

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 10_000])
    def test_chunk_partition_invariance(self, fitted_classifier, annotated_stream, chunk_size):
        detector = StreamingEarlyDetector(fitted_classifier, stride=4, normalization="causal")
        session = detector.open_session()
        values = annotated_stream.values
        for start in range(0, values.shape[0], chunk_size):
            session.extend(values[start : start + chunk_size])
        assert_alarms_equivalent(detect_reference(detector, values), session.finalize())


class TestSessionBehaviour:
    def test_alarms_confirmed_no_later_than_window_completion(
        self, fitted_classifier, annotated_stream
    ):
        session = StreamingSession(fitted_classifier, stride=4, normalization="none")
        window = fitted_classifier.train_length_
        for index, value in enumerate(annotated_stream.values):
            for alarm in session.push(value):
                assert alarm.position <= index
                assert index == alarm.candidate_start + window - 1
        assert session.finalize() == session.alarms

    def test_incremental_emission_matches_batch(self, fitted_classifier, annotated_stream):
        batch = StreamingSession(fitted_classifier, stride=4, normalization="causal")
        emitted = list(batch.extend(annotated_stream.values))
        assert emitted == batch.finalize()

    def test_push_after_finalize_raises(self, fitted_classifier):
        session = StreamingSession(fitted_classifier, stride=4)
        session.finalize()
        with pytest.raises(RuntimeError):
            session.push(0.0)

    def test_rejects_non_finite_samples(self, fitted_classifier):
        session = StreamingSession(fitted_classifier, stride=4)
        with pytest.raises(ValueError):
            session.push(float("nan"))

    def test_parameter_validation(self, fitted_classifier):
        with pytest.raises(TypeError):
            StreamingSession(object())
        with pytest.raises(ValueError):
            StreamingSession(ProbabilityThresholdClassifier())  # unfitted
        with pytest.raises(ValueError):
            StreamingSession(fitted_classifier, stride=0)
        with pytest.raises(ValueError):
            StreamingSession(fitted_classifier, normalization="zscore")
        with pytest.raises(ValueError):
            StreamingSession(fitted_classifier, refractory=-1)
        with pytest.raises(ValueError):
            StreamingSession(fitted_classifier, max_alarms=0)

    def test_open_candidate_count_is_bounded(self, fitted_classifier, annotated_stream):
        stride = 4
        session = StreamingSession(fitted_classifier, stride=stride, normalization="none")
        bound = fitted_classifier.train_length_ // stride + 1
        for chunk in annotated_stream.iter_chunks(64):
            session.extend(chunk)
            assert session.n_open_candidates <= bound

    def test_short_stream_yields_no_alarms(self, fitted_classifier):
        session = StreamingSession(fitted_classifier, stride=2)
        session.extend(np.zeros(fitted_classifier.train_length_ - 1))
        assert session.finalize() == []


def _pushed(model, row):
    walker = model.open_stream()
    for value in row:
        walker.push(value)
        if walker.outcome is not None:
            break
    return walker.outcome


def _fed(model, row, block):
    walker = model.open_stream()
    for start in range(0, row.shape[0], block):
        if walker.feed(row[start : start + block]) is not None:
            break
    return walker.outcome


class TestClassifierStream:
    @pytest.mark.parametrize("name", sorted(BATCHED_CLASSIFIERS))
    @pytest.mark.parametrize("znorm", ["znormalized", "raw"])
    def test_every_classifier_streams_like_the_per_row_walk(
        self, name, znorm, gunpoint_small, gunpoint_small_raw
    ):
        train, test = gunpoint_small if znorm == "znormalized" else gunpoint_small_raw
        model = BATCHED_CLASSIFIERS[name]().fit(train.series, train.labels)
        rows = test.series[::2]
        reference = [predict_early_reference(model, row) for row in rows]
        _assert_outcomes_match([_pushed(model, row) for row in rows], reference)
        _assert_outcomes_match([_fed(model, row, block=7) for row in rows], reference)

    def test_concurrent_walkers_do_not_interfere(self, ects_classifier, tiny_two_class):
        series, _ = tiny_two_class
        solo = predict_early_reference(ects_classifier, series[0])
        first = ects_classifier.open_stream()
        second = ects_classifier.open_stream()
        # Interleave two walks over different exemplars; the first must reach
        # the same outcome as the per-row walk on its own.
        for a, b in zip(series[0], series[1]):
            if first.outcome is None:
                first.push(a)
            if second.outcome is None:
                second.push(b)
        assert first.outcome is not None
        assert first.outcome.label == solo.label
        assert first.outcome.trigger_length == solo.trigger_length

    def test_feed_rejects_non_finite_blocks(self, ects_classifier):
        # feed is the block-mode twin of push and must enforce the same
        # finiteness contract -- a checkpoint past the bad sample would
        # otherwise be answered from NaN distances.
        walker = ects_classifier.open_stream()
        with pytest.raises(ValueError):
            walker.feed(np.asarray([0.0, float("nan"), 1.0]))

    def test_push_past_outcome_raises(self, fitted_classifier):
        walker = ClassifierStream(fitted_classifier)
        for value in np.zeros(fitted_classifier.train_length_):
            walker.push(value)
        assert walker.outcome is not None and not walker.outcome.triggered
        with pytest.raises(RuntimeError):
            walker.push(0.0)
