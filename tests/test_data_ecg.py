"""Unit tests for the synthetic ECG generator."""

import numpy as np
import pytest

from repro.data.ecg import ECGGenerator, beat_statistics, make_ecg_beat_dataset
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier


class TestBeat:
    def test_beat_length_default(self):
        generator = ECGGenerator(sampling_rate=128, heart_rate_bpm=60, seed=1)
        beat = generator.beat()
        assert beat.shape == (128,)

    def test_r_wave_is_dominant_peak(self):
        generator = ECGGenerator(seed=2)
        beat = generator.beat(length=100)
        peak_position = int(np.argmax(beat)) / 100
        assert 0.3 < peak_position < 0.5  # R wave sits at ~40% of the beat

    def test_st_elevation_raises_st_segment(self):
        generator = ECGGenerator(seed=3, noise_scale=0.0)
        normal = generator.beat(length=100, st_elevation=0.0)
        elevated = generator.beat(length=100, st_elevation=0.4)
        st_region = slice(50, 60)
        assert elevated[st_region].mean() > normal[st_region].mean() + 0.2

    def test_rejects_tiny_beat(self):
        with pytest.raises(ValueError):
            ECGGenerator().beat(length=8)

    def test_rejects_bad_heart_rate(self):
        with pytest.raises(ValueError):
            ECGGenerator(heart_rate_bpm=10)

    def test_rejects_bad_sampling_rate(self):
        with pytest.raises(ValueError):
            ECGGenerator(sampling_rate=8)


class TestTelemetry:
    def test_shape_and_beat_annotations(self):
        generator = ECGGenerator(seed=4)
        signal, beats = generator.telemetry(10.0, n_leads=2)
        assert signal.shape[0] == 2
        assert signal.shape[1] == 10 * generator.sampling_rate
        assert len(beats) >= 8  # ~72 bpm for 10 s
        for start, end in beats:
            assert 0 <= start < end <= signal.shape[1]

    def test_baseline_wander_increases_per_beat_mean_spread(self):
        generator = ECGGenerator(seed=5)
        wandering, beats = generator.telemetry(12.0, baseline_wander=True, amplitude_modulation=False)
        clean_generator = ECGGenerator(seed=5)
        clean, clean_beats = clean_generator.telemetry(
            12.0, baseline_wander=False, amplitude_modulation=False
        )
        wander_means, _ = beat_statistics(wandering[0], beats)
        clean_means, _ = beat_statistics(clean[0], clean_beats)
        assert np.ptp(wander_means) > 3 * np.ptp(clean_means)

    def test_amplitude_modulation_increases_per_beat_std_spread(self):
        generator = ECGGenerator(seed=6)
        modulated, beats = generator.telemetry(12.0, baseline_wander=False, amplitude_modulation=True)
        clean_generator = ECGGenerator(seed=6)
        clean, clean_beats = clean_generator.telemetry(
            12.0, baseline_wander=False, amplitude_modulation=False
        )
        _, modulated_stds = beat_statistics(modulated[1], beats)
        _, clean_stds = beat_statistics(clean[1], clean_beats)
        assert np.ptp(modulated_stds) > 1.5 * np.ptp(clean_stds)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            ECGGenerator().telemetry(0.0)


class TestBeatStatistics:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        signal = rng.standard_normal(100)
        means, stds = beat_statistics(signal, [(0, 50), (50, 100)])
        assert means[0] == pytest.approx(signal[:50].mean())
        assert stds[1] == pytest.approx(signal[50:].std())

    def test_rejects_empty_beats(self):
        with pytest.raises(ValueError):
            beat_statistics(np.zeros(10), [])

    def test_rejects_out_of_range_interval(self):
        with pytest.raises(ValueError):
            beat_statistics(np.zeros(10), [(5, 20)])

    def test_rejects_2d_signal(self):
        with pytest.raises(ValueError):
            beat_statistics(np.zeros((2, 10)), [(0, 5)])


class TestBeatDataset:
    def test_shape_and_classes(self):
        dataset = make_ecg_beat_dataset(n_per_class=6, length=64)
        assert dataset.series.shape == (12, 64)
        assert set(dataset.classes) == {"normal", "st_elevation"}

    def test_classes_are_separable(self):
        dataset = make_ecg_beat_dataset(n_per_class=15, length=96)
        train = dataset.subset(range(0, 30, 2))
        test = dataset.subset(range(1, 30, 2))
        model = KNeighborsTimeSeriesClassifier().fit(train.series, train.labels)
        assert model.score(test.series, test.labels) >= 0.85

    def test_znormalized_by_default(self):
        dataset = make_ecg_beat_dataset(n_per_class=3)
        assert dataset.znormalized
        np.testing.assert_allclose(dataset.series.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(dataset.series.std(axis=1), 1.0, atol=1e-9)
