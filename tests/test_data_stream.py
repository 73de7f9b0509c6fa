"""Unit tests for the stream composer and its annotations."""

import numpy as np
import pytest

from repro.data.random_walk import random_walk_background
from repro.data.stream import ComposedStream, GroundTruthEvent, StreamComposer


class TestGroundTruthEvent:
    def test_length(self):
        event = GroundTruthEvent(start=10, end=20, label="x")
        assert event.length == 10

    def test_overlaps(self):
        event = GroundTruthEvent(start=10, end=20, label="x")
        assert event.overlaps(15, 25)
        assert event.overlaps(0, 11)
        assert not event.overlaps(20, 30)
        assert not event.overlaps(0, 10)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            GroundTruthEvent(start=5, end=5, label="x")
        with pytest.raises(ValueError):
            GroundTruthEvent(start=-1, end=5, label="x")


class TestComposedStream:
    def test_events_sorted_and_validated(self):
        values = np.zeros(100)
        events = [
            GroundTruthEvent(start=50, end=60, label="b"),
            GroundTruthEvent(start=10, end=20, label="a"),
        ]
        stream = ComposedStream(values=values, events=events)
        assert [e.label for e in stream.events] == ["a", "b"]

    def test_event_past_end_rejected(self):
        with pytest.raises(ValueError):
            ComposedStream(values=np.zeros(30), events=[GroundTruthEvent(0, 50, "a")])

    def test_iter_chunks_are_views_covering_the_stream(self):
        stream = ComposedStream(values=np.arange(23.0))
        chunks = list(stream.iter_chunks(5))
        assert [chunk.shape[0] for chunk in chunks] == [5, 5, 5, 5, 3]
        np.testing.assert_array_equal(np.concatenate(chunks), stream.values)
        assert all(np.shares_memory(chunk, stream.values) for chunk in chunks)
        with pytest.raises(ValueError):
            list(stream.iter_chunks(0))

    def test_extract_and_window(self):
        values = np.arange(50.0)
        stream = ComposedStream(values=values, events=[GroundTruthEvent(10, 15, "a")])
        np.testing.assert_allclose(stream.extract(stream.events[0]), values[10:15])
        np.testing.assert_allclose(stream.window(5, 4), values[5:9])
        with pytest.raises(IndexError):
            stream.window(48, 5)

    def test_background_fraction(self):
        stream = ComposedStream(
            values=np.zeros(100), events=[GroundTruthEvent(0, 25, "a")]
        )
        assert stream.background_fraction() == pytest.approx(0.75)

    def test_labels_and_events_with_label(self):
        stream = ComposedStream(
            values=np.zeros(100),
            events=[GroundTruthEvent(0, 10, "a"), GroundTruthEvent(20, 30, "b")],
        )
        assert stream.labels() == ("a", "b")
        assert len(stream.events_with_label("a")) == 1


class TestStreamComposer:
    def _exemplars(self):
        rng = np.random.default_rng(0)
        return [np.sin(np.linspace(0, 6, 50)) + 0.01 * rng.standard_normal(50) for _ in range(4)]

    def test_compose_event_count_and_order(self):
        composer = StreamComposer(background=np.zeros(500), gap_range=(10, 20), seed=1)
        stream = composer.compose(self._exemplars(), ["a", "b", "a", "b"])
        assert stream.n_events == 4
        assert [e.label for e in stream.events] == ["a", "b", "a", "b"]

    def test_events_do_not_overlap(self):
        composer = StreamComposer(background=np.zeros(500), gap_range=(5, 15), seed=2)
        stream = composer.compose(self._exemplars(), list("abab"))
        for first, second in zip(stream.events, stream.events[1:]):
            assert first.end <= second.start

    def test_event_extents_match_exemplar_length(self):
        composer = StreamComposer(background=np.zeros(500), gap_range=(5, 15), seed=3)
        stream = composer.compose(self._exemplars(), list("abab"))
        for event in stream.events:
            assert event.length == 50

    def test_level_match_disabled_preserves_values(self):
        exemplars = self._exemplars()
        composer = StreamComposer(
            background=np.zeros(200), gap_range=(5, 10), level_match=False, seed=4
        )
        stream = composer.compose(exemplars[:1], ["a"])
        event = stream.events[0]
        np.testing.assert_allclose(stream.extract(event), exemplars[0])

    def test_callable_background(self):
        composer = StreamComposer(
            background=random_walk_background(smoothing=4), gap_range=(50, 80), seed=5
        )
        stream = composer.compose(self._exemplars(), list("abab"))
        assert stream.background_fraction() > 0.2

    def test_label_count_mismatch_rejected(self):
        composer = StreamComposer(background=np.zeros(100), seed=6)
        with pytest.raises(ValueError):
            composer.compose(self._exemplars(), ["a"])

    def test_compose_is_deterministic_given_the_seed(self):
        exemplars = self._exemplars()
        labels = list("abab")
        first = StreamComposer(background=random_walk_background(), seed=9).compose(
            exemplars, labels
        )
        again = StreamComposer(background=random_walk_background(), seed=9).compose(
            exemplars, labels
        )
        np.testing.assert_array_equal(first.values, again.values)
        assert first.events == again.events

    def test_bad_gap_range_rejected(self):
        with pytest.raises(ValueError):
            StreamComposer(background=np.zeros(10), gap_range=(10, 5))
