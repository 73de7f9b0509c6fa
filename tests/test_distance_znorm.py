"""Unit tests for repro.distance.znorm and the paper's three normalisation modes."""

import numpy as np
import pytest

from repro.data.ucr_format import UCRDataset
from repro.distance.znorm import znormalize
from repro.streaming.online import causal_znormalize_batch


class TestZnormalize:
    def test_zero_mean_unit_std(self):
        series = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        normalized = znormalize(series)
        assert abs(normalized.mean()) < 1e-12
        assert abs(normalized.std() - 1.0) < 1e-12

    def test_preserves_shape_ordering(self):
        series = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        normalized = znormalize(series)
        assert np.array_equal(np.argsort(series), np.argsort(normalized))

    def test_constant_series_maps_to_zeros(self):
        assert np.array_equal(znormalize(np.full(10, 7.0)), np.zeros(10))

    def test_invariant_to_offset_and_scale(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(50)
        shifted = 3.5 * series + 11.0
        np.testing.assert_allclose(znormalize(series), znormalize(shifted), atol=1e-10)

    def test_2d_normalises_each_row(self):
        rows = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 60.0]])
        normalized = znormalize(rows)
        for row in normalized:
            assert abs(row.mean()) < 1e-12
            assert abs(row.std() - 1.0) < 1e-12

    def test_2d_with_constant_row(self):
        rows = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        normalized = znormalize(rows)
        assert np.array_equal(normalized[1], np.zeros(3))
        assert abs(normalized[0].std() - 1.0) < 1e-12

    def test_uses_the_population_standard_deviation(self):
        series = np.array([1.0, 2.0, 3.0, 4.0])
        expected = (series - series.mean()) / series.std(ddof=0)
        assert np.array_equal(znormalize(series), expected)

    def test_rows_keep_the_row_wise_arithmetic(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(5.0, 3.0, size=(6, 40))
        expected = (rows - rows.mean(axis=1, keepdims=True)) / rows.std(
            axis=1, keepdims=True
        )
        assert np.array_equal(znormalize(rows), expected)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            znormalize(np.array([]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            znormalize(np.array([1.0, np.nan, 3.0]))

    def test_3d_is_per_exemplar_per_channel(self):
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((2, 30, 4))
        out = znormalize(batch)
        for i in range(2):
            for c in range(4):
                np.testing.assert_allclose(
                    out[i, :, c], znormalize(batch[i, :, c]), atol=1e-12
                )

    def test_rejects_4d(self):
        with pytest.raises(ValueError):
            znormalize(np.zeros((2, 3, 4, 5)))


    def test_3d_constant_channel_maps_to_zeros(self):
        rng = np.random.default_rng(9)
        batch = rng.standard_normal((3, 20, 2))
        batch[1, :, 0] = 4.0
        out = znormalize(batch)
        assert np.array_equal(out[1, :, 0], np.zeros(20))
        np.testing.assert_allclose(out[1, :, 1], znormalize(batch[1, :, 1]), atol=1e-12)

    def test_single_multichannel_exemplar_is_a_batch_of_one(self):
        rng = np.random.default_rng(10)
        exemplar = rng.normal(2.0, 4.0, size=(25, 3))
        out = znormalize(exemplar[None])[0]
        expected = (exemplar - exemplar.mean(axis=0)) / exemplar.std(axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rejects_infinity(self):
        with pytest.raises(ValueError, match="non-finite"):
            znormalize(np.array([[1.0, np.inf, 3.0]]))


def _row_by_row(rows: np.ndarray) -> np.ndarray:
    """``(row - row.mean()) / row.std()`` one row at a time; constants to zeros."""
    out = np.zeros_like(rows)
    for i, row in enumerate(rows):
        if row.std() >= 1e-12:
            out[i] = (row - row.mean()) / row.std()
    return out


class TestRowBatches:
    """A 2-D batch is each row normalised on its own, bit for bit."""

    def test_batch_without_constant_rows(self):
        rows = 3.0 + 2.0 * np.random.default_rng(11).standard_normal((12, 1024))
        assert np.array_equal(znormalize(rows), _row_by_row(rows))

    def test_batch_with_constant_and_all_zero_rows(self):
        rows = -1.0 + 0.5 * np.random.default_rng(12).standard_normal((8, 100))
        rows[2] = 5.0
        rows[5] = 0.0
        got = znormalize(rows)
        assert np.array_equal(got, _row_by_row(rows))
        assert not got[[2, 5]].any()


def _explicit_znormalize(arr: np.ndarray) -> np.ndarray:
    """The whole-exemplar formula spelled out per rank, constants to zeros."""
    if arr.ndim == 1:
        std = arr.std()
        return np.zeros_like(arr) if std < 1e-12 else (arr - arr.mean()) / std
    mean = arr.mean(axis=1, keepdims=True)
    std = arr.std(axis=1, keepdims=True)
    constant = std < 1e-12
    return np.where(constant, 0.0, (arr - mean) / np.where(constant, 1.0, std))


@pytest.mark.parametrize(
    "shape", [(1,), (7,), (1, 5), (4, 30), (9, 2), (3, 20, 2), (1, 9, 4), (2, 1, 3)]
)
@pytest.mark.parametrize("offset, scale", [(0.0, 1.0), (1e6, 3.0), (-4.0, 1e-3)])
def test_znormalize_is_the_explicit_formula_bit_for_bit(shape, offset, scale):
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    arr = offset + scale * rng.standard_normal(shape)
    if arr.ndim >= 2 and arr.shape[0] > 1:
        arr[1] = offset  # one constant exemplar per batch
    got = znormalize(arr)
    assert got.shape == arr.shape
    assert np.array_equal(got, _explicit_znormalize(arr))


class TestHonestPrefix:
    """The honest prefix mode is ``znormalize`` of the prefix alone."""

    def test_uses_only_prefix_statistics(self):
        series = np.array([1.0, 2.0, 3.0, 100.0, 200.0])
        prefix = znormalize(series[:3])
        assert abs(prefix.mean()) < 1e-12
        assert abs(prefix.std() - 1.0) < 1e-12

    def test_differs_from_whole_series_normalisation(self):
        rng = np.random.default_rng(1)
        series = np.concatenate([rng.standard_normal(20), rng.standard_normal(20) + 10])
        assert not np.allclose(znormalize(series[:20]), znormalize(series)[:20])

    @pytest.mark.parametrize("length", [1, 7, 30])
    def test_truncated_renormalize_is_znormalize_of_the_prefix(self, length):
        rng = np.random.default_rng(11)
        series = rng.normal(3.0, 2.0, size=(5, 30))
        dataset = UCRDataset("d", series, np.arange(5))
        truncated = dataset.truncated(length, renormalize=True)
        assert truncated.znormalized
        assert np.array_equal(truncated.series, znormalize(series[:, :length]))

    def test_truncated_without_renormalize_keeps_raw_values(self):
        rng = np.random.default_rng(12)
        series = rng.normal(3.0, 2.0, size=(4, 30))
        truncated = UCRDataset("d", series, np.arange(4)).truncated(10)
        assert not truncated.znormalized
        assert np.array_equal(truncated.series, series[:, :10])


class TestCausalMode:
    """The causal mode is :func:`repro.streaming.online.causal_znormalize_batch`."""

    def test_output_shape_matches_input(self):
        windows = np.arange(60.0).reshape(2, 30)
        assert causal_znormalize_batch(windows).shape == windows.shape

    def test_never_uses_future_values(self):
        # Changing the future must not change the causal normalisation of the past.
        rng = np.random.default_rng(2)
        windows = rng.standard_normal((3, 50))
        modified = windows.copy()
        modified[:, 30:] += 100.0
        a = causal_znormalize_batch(windows)
        b = causal_znormalize_batch(modified)
        np.testing.assert_allclose(a[:, :30], b[:, :30], atol=1e-12)

    def test_constant_window_gives_zero(self):
        assert np.array_equal(causal_znormalize_batch(np.full((2, 20), 3.0)), np.zeros((2, 20)))

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        windows = rng.standard_normal((2, 40))
        out = causal_znormalize_batch(windows)
        for row in range(2):
            for i in range(1, 40):
                seen = windows[row, : i + 1]
                expected = (windows[row, i] - seen.mean()) / seen.std()
                assert out[row, i] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_last_sample_matches_whole_window_znormalize(self):
        # At the last sample the causal statistics are the whole window's.
        rng = np.random.default_rng(4)
        windows = rng.normal(7.0, 2.0, size=(4, 25))
        np.testing.assert_allclose(
            causal_znormalize_batch(windows)[:, -1], znormalize(windows)[:, -1], atol=1e-10
        )

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            causal_znormalize_batch(np.arange(10.0))
