"""Unit tests for repro.distance.profile (MASS-style distance profiles)."""

import numpy as np
import pytest

from repro.distance.euclidean import euclidean_distance, znormalized_euclidean_distance
from repro.distance.profile import (
    distance_profile,
    sliding_dot_product,
    sliding_mean_std,
    top_k_nearest_subsequences,
)


class TestSlidingMeanStd:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(200)
        window = 17
        means, stds = sliding_mean_std(series, window)
        assert means.shape == (200 - window + 1,)
        for i in (0, 50, 183):
            segment = series[i : i + window]
            assert means[i] == pytest.approx(segment.mean(), abs=1e-9)
            assert stds[i] == pytest.approx(segment.std(), abs=1e-9)

    def test_window_one(self):
        series = np.array([1.0, 2.0, 3.0])
        means, stds = sliding_mean_std(series, 1)
        np.testing.assert_allclose(means, series)
        np.testing.assert_allclose(stds, np.zeros(3))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            sliding_mean_std(np.arange(10.0), 11)
        with pytest.raises(ValueError):
            sliding_mean_std(np.arange(10.0), 0)


class TestSlidingDotProduct:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        query = rng.standard_normal(9)
        series = rng.standard_normal(60)
        dots = sliding_dot_product(query, series)
        assert dots.shape == (60 - 9 + 1,)
        for i in (0, 25, 51):
            assert dots[i] == pytest.approx(float(query @ series[i : i + 9]), abs=1e-8)

    def test_rejects_query_longer_than_series(self):
        with pytest.raises(ValueError):
            sliding_dot_product(np.arange(10.0), np.arange(5.0))


class TestDistanceProfile:
    def test_znormalized_matches_brute_force(self):
        rng = np.random.default_rng(2)
        query = rng.standard_normal(12)
        series = rng.standard_normal(80)
        profile = distance_profile(query, series)
        for i in (0, 13, 40, 68):
            expected = znormalized_euclidean_distance(query, series[i : i + 12])
            assert profile[i] == pytest.approx(expected, abs=1e-6)

    def test_raw_matches_brute_force(self):
        rng = np.random.default_rng(3)
        query = rng.standard_normal(10)
        series = rng.standard_normal(50)
        profile = distance_profile(query, series, znormalized=False)
        for i in (0, 20, 40):
            expected = euclidean_distance(query, series[i : i + 10])
            assert profile[i] == pytest.approx(expected, abs=1e-6)

    def test_exact_match_yields_zero(self):
        rng = np.random.default_rng(4)
        series = rng.standard_normal(100)
        query = series[30:45].copy()
        profile = distance_profile(query, series)
        assert profile[30] == pytest.approx(0.0, abs=1e-5)
        assert int(np.argmin(profile)) == 30

    def test_constant_subsequences_get_maximal_distance(self):
        series = np.concatenate([np.zeros(30), np.sin(np.linspace(0, 6, 30))])
        query = np.sin(np.linspace(0, 3, 10))
        profile = distance_profile(query, series)
        # Windows entirely inside the flat region cannot be z-normalised; the
        # convention is the maximal distance sqrt(2m).
        assert profile[0] == pytest.approx(np.sqrt(2 * 10))

    def test_profile_length(self):
        profile = distance_profile(np.arange(5.0), np.arange(20.0))
        assert profile.shape == (16,)

    def test_rejects_too_short_query(self):
        with pytest.raises(ValueError):
            distance_profile(np.array([1.0]), np.arange(10.0))

    def test_rejects_query_longer_than_series(self):
        with pytest.raises(ValueError):
            distance_profile(np.arange(11.0), np.arange(10.0))


class TestTopKNearest:
    def test_returns_sorted_distances(self):
        rng = np.random.default_rng(5)
        series = rng.standard_normal(300)
        query = rng.standard_normal(15)
        hits = top_k_nearest_subsequences(query, series, k=4)
        distances = [d for _, d in hits]
        assert distances == sorted(distances)

    def test_exclusion_zone_prevents_overlaps(self):
        rng = np.random.default_rng(6)
        series = rng.standard_normal(200)
        query = series[50:70].copy()
        hits = top_k_nearest_subsequences(query, series, k=3)
        positions = [p for p, _ in hits]
        for i in range(len(positions)):
            for j in range(i + 1, len(positions)):
                assert abs(positions[i] - positions[j]) >= 10  # half the query length

    def test_k_one_is_argmin(self):
        rng = np.random.default_rng(7)
        series = rng.standard_normal(150)
        query = rng.standard_normal(12)
        hits = top_k_nearest_subsequences(query, series, k=1)
        profile = distance_profile(query, series)
        assert hits[0][0] == int(np.argmin(profile))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_nearest_subsequences(np.arange(5.0), np.arange(50.0), k=0)


class TestPlantedMatches:
    """The Fig. 5 / Fig. 8 uses: find planted copies of a template."""

    @pytest.fixture
    def planted(self):
        rng = np.random.default_rng(8)
        template = np.sin(np.linspace(0, 4 * np.pi, 40))
        series = rng.standard_normal(2000) * 0.5
        for start in (100, 700, 1500):
            series[start : start + 40] = template + 0.01 * rng.standard_normal(40)
        return template, series

    def test_profile_dips_below_threshold_only_at_planted_copies(self, planted):
        template, series = planted
        below = np.flatnonzero(distance_profile(template, series) < 1.0)
        assert below.size
        assert all(any(abs(i - start) < 20 for start in (100, 700, 1500)) for i in below)
        assert all(any(abs(i - start) < 20 for i in below) for start in (100, 700, 1500))

    def test_top_k_returns_the_planted_copies_first(self, planted):
        template, series = planted
        hits = top_k_nearest_subsequences(template, series, k=3)
        assert sorted(position for position, _ in hits) == [100, 700, 1500]
        assert all(distance < 1.0 for _, distance in hits)

    def test_exact_subsequence_is_found_at_distance_zero(self):
        rng = np.random.default_rng(10)
        series = rng.standard_normal(400)
        hits = top_k_nearest_subsequences(series[100:130].copy(), series, k=1)
        assert hits[0][0] == 100
        assert hits[0][1] == pytest.approx(0.0, abs=1e-5)

    def test_fewer_hits_when_exclusion_zones_exhaust_the_profile(self):
        rng = np.random.default_rng(11)
        series = rng.standard_normal(60)
        hits = top_k_nearest_subsequences(series[:20].copy(), series, k=10, exclusion=20)
        assert 1 <= len(hits) < 10

    def test_raw_mode_is_not_offset_invariant(self):
        rng = np.random.default_rng(12)
        series = rng.standard_normal(300)
        query = series[50:80] + 10.0
        znorm_hit = top_k_nearest_subsequences(query, series, k=1)[0]
        raw_hit = top_k_nearest_subsequences(query, series, k=1, znormalized=False)[0]
        assert znorm_hit[0] == 50
        assert raw_hit[1] > 10.0
