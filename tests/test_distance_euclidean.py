"""Unit tests for repro.distance.euclidean."""

import numpy as np
import pytest

from repro.distance.euclidean import (
    euclidean_distance,
    pairwise_euclidean,
    znormalized_euclidean_distance,
)
from repro.distance.znorm import znormalize


class TestEuclideanDistance:
    def test_identical_series_distance_zero(self):
        series = np.array([1.0, 2.0, 3.0])
        assert euclidean_distance(series, series) == 0.0

    def test_known_value(self):
        a = np.array([0.0, 0.0])
        b = np.array([3.0, 4.0])
        assert euclidean_distance(a, b) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(20), rng.standard_normal(20)
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.standard_normal(15) for _ in range(3))
        assert euclidean_distance(a, c) <= euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-12

    def test_is_the_root_of_the_summed_squares(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        assert euclidean_distance(a, b) ** 2 == pytest.approx(float(np.sum((a - b) ** 2)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance(np.arange(3.0), np.arange(4.0))

    def test_2d_pair_is_channel_summed(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((12, 3)), rng.standard_normal((12, 3))
        per_channel = sum(euclidean_distance(a[:, c], b[:, c]) ** 2 for c in range(3))
        assert euclidean_distance(a, b) ** 2 == pytest.approx(per_channel, abs=1e-10)

    def test_rejects_mismatched_ranks(self):
        with pytest.raises(ValueError):
            euclidean_distance(np.zeros((2, 3)), np.zeros(6))

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            euclidean_distance(np.array([]), np.array([]))


class TestZnormalizedEuclidean:
    def test_offset_invariance(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(30), rng.standard_normal(30)
        base = znormalized_euclidean_distance(a, b)
        shifted = znormalized_euclidean_distance(a + 5.0, b - 2.0)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(30), rng.standard_normal(30)
        base = znormalized_euclidean_distance(a, b)
        scaled = znormalized_euclidean_distance(3.0 * a, 0.5 * b)
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_equals_euclidean_on_prenormalised_data(self):
        rng = np.random.default_rng(5)
        a = znormalize(rng.standard_normal(25))
        b = znormalize(rng.standard_normal(25))
        assert znormalized_euclidean_distance(a, b) == pytest.approx(euclidean_distance(a, b))

    def test_upper_bound(self):
        # For z-normalised series of length m the distance is at most 2*sqrt(m).
        rng = np.random.default_rng(6)
        m = 40
        a, b = rng.standard_normal(m), rng.standard_normal(m)
        assert znormalized_euclidean_distance(a, b) <= 2.0 * np.sqrt(m) + 1e-9

    def test_multichannel_exemplars_are_normalised_per_channel(self):
        rng = np.random.default_rng(9)
        a = rng.normal(4.0, 2.0, size=(30, 3))
        b = rng.normal(-1.0, 0.5, size=(30, 3))
        per_channel = [
            znormalized_euclidean_distance(a[:, c], b[:, c]) ** 2 for c in range(3)
        ]
        assert znormalized_euclidean_distance(a, b) == pytest.approx(
            np.sqrt(sum(per_channel)), rel=1e-12
        )

    def test_multichannel_exemplar_is_a_batch_of_one(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
        a[:, 1] = 5.0  # a constant channel normalises to zeros
        expected = euclidean_distance(znormalize(a[None])[0], znormalize(b[None])[0])
        assert znormalized_euclidean_distance(a, b) == expected


class TestPairwiseEuclidean:
    def test_matches_pointwise_computation(self):
        rng = np.random.default_rng(7)
        rows = rng.standard_normal((5, 12))
        others = rng.standard_normal((4, 12))
        matrix = pairwise_euclidean(rows, others)
        for i in range(5):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(euclidean_distance(rows[i], others[j]), abs=1e-9)

    def test_self_distances_zero_diagonal(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((6, 10))
        matrix = pairwise_euclidean(rows)
        np.testing.assert_allclose(np.diag(matrix), np.zeros(6), atol=1e-6)

    def test_shape(self):
        matrix = pairwise_euclidean(np.zeros((3, 5)), np.zeros((7, 5)))
        assert matrix.shape == (3, 7)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pairwise_euclidean(np.zeros((3, 5)), np.zeros((2, 4)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            pairwise_euclidean(np.zeros(5))
