"""Unit tests for EDSC (Chebyshev and KDE threshold learning)."""

import dataclasses

import numpy as np
import pytest

from repro.classifiers.base import PartialPrediction
from repro.classifiers.edsc import EDSCClassifier, _best_match_distances, _sliding_windows
from repro.data.denormalize import denormalize_dataset

#: The candidate window lengths of a Table 1 fit: the default shapelet length
#: fractions of a length-150 GunPoint exemplar.
TABLE1_WINDOWS = (15, 22, 30, 45)


def _previous_best_match_distances(candidates, series):
    """The best-match kernel before it was trimmed to two buffers."""
    window = candidates.shape[1]
    windows = _sliding_windows(series, window)
    n_series, n_windows = windows.shape[0], windows.shape[1]
    cand_flat = candidates.reshape(candidates.shape[0], -1)
    flat = np.ascontiguousarray(windows).reshape(n_series * n_windows, -1)

    cand_sq = np.sum(cand_flat * cand_flat, axis=1)[:, None]
    win_sq = np.sum(flat * flat, axis=1)[None, :]
    cross = cand_flat @ flat.T
    squared = np.maximum(cand_sq + win_sq - 2.0 * cross, 0.0)
    distances = np.sqrt(squared).reshape(candidates.shape[0], n_series, n_windows)

    best_positions = np.argmin(distances, axis=2)
    best = np.min(distances, axis=2)
    return best, best_positions + window


def _oracle_partial(model, prefix):
    """``predict_partial`` as one best-match scan per shapelet (the reference).

    Every shapelet that fits in the prefix is slid over it; a shapelet fires
    when its best match is within its threshold, and the fired shapelet of
    highest utility decides (the first one in ``shapelets_`` order on a tie).
    """
    arr = np.asarray(prefix, dtype=float)
    length = arr.shape[0]
    best = None
    for shapelet in model.shapelets_:
        if shapelet.length > length:
            continue
        windows = _sliding_windows(arr[None], shapelet.length)[0]
        diffs = windows - shapelet.values[None]
        sq = np.sum(diffs * diffs, axis=tuple(range(1, diffs.ndim)))
        if float(np.sqrt(np.min(sq))) <= shapelet.threshold:
            if best is None or shapelet.utility > best.utility:
                best = shapelet
    if best is None:
        uniform = 1.0 / len(model.classes_)
        return PartialPrediction(
            label=model._fallback_label,
            ready=False,
            confidence=uniform,
            prefix_length=length,
            probabilities={cls: uniform for cls in model.classes_},
        )
    probabilities = {cls: 0.0 for cls in model.classes_}
    probabilities[best.label] = best.precision
    others = [cls for cls in model.classes_ if cls != best.label]
    for cls in others:
        probabilities[cls] = (1.0 - best.precision) / len(others)
    return PartialPrediction(
        label=best.label,
        ready=True,
        confidence=best.precision,
        prefix_length=length,
        probabilities=probabilities,
    )


def _check_partials_against_oracle(model, rows):
    """Assert ``predict_partial`` equals the oracle at every checkpoint of every row.

    Returns how many of the compared partials were ready.
    """
    n_ready = 0
    for row in rows:
        for length in model.checkpoints():
            got = model.predict_partial(row[:length])
            want = _oracle_partial(model, row[:length])
            assert got == want, (length, got, want)
            n_ready += got.ready
    return n_ready


def _three_channel_problem():
    rng = np.random.default_rng(5)
    series = rng.normal(size=(18, 40, 3))
    labels = np.repeat([0, 1], 9)
    series[labels == 1, 6:18, 1] += 1.5
    series[labels == 0, 20:30, 2] -= 1.5
    return series, labels


class TestHelpers:
    def test_sliding_windows_shape_and_content(self):
        series = np.arange(20.0).reshape(2, 10)
        windows = _sliding_windows(series, 4)
        assert windows.shape == (2, 7, 4)
        np.testing.assert_allclose(windows[0, 0], series[0, :4])
        np.testing.assert_allclose(windows[1, 3], series[1, 3:7])

    def test_best_match_distances_match_brute_force(self):
        rng = np.random.default_rng(0)
        candidates = rng.standard_normal((3, 5))
        series = rng.standard_normal((4, 20))
        distances, ends = _best_match_distances(candidates, series)
        assert distances.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                brute = min(
                    np.linalg.norm(candidates[i] - series[j, s : s + 5])
                    for s in range(16)
                )
                assert distances[i, j] == pytest.approx(brute, abs=1e-9)
                assert 5 <= ends[i, j] <= 20

    @pytest.mark.parametrize("window", TABLE1_WINDOWS)
    def test_best_match_distances_bit_identical_to_previous_kernel(
        self, window, gunpoint_medium
    ):
        train, _ = gunpoint_medium
        rng = np.random.default_rng(window)
        sources = rng.integers(0, train.series.shape[0], size=40)
        starts = rng.integers(0, train.series_length - window + 1, size=40)
        candidates = np.stack(
            [train.series[i, p : p + window] for i, p in zip(sources, starts)]
        )
        distances, ends = _best_match_distances(candidates, train.series)
        want_distances, want_ends = _previous_best_match_distances(
            candidates, train.series
        )
        assert np.array_equal(distances, want_distances)
        assert np.array_equal(ends, want_ends)

    def test_best_match_tie_reports_the_first_window(self):
        # Small integers keep every product and sum exact, so a duplicated
        # window ties exactly and the earliest copy must win.
        rng = np.random.default_rng(3)
        series = rng.integers(-3, 4, size=(4, 40)).astype(float)
        series[:, 25:33] = series[:, 5:13]
        candidates = np.stack([series[0, 5:13], series[2, 25:33] + 1.0])
        distances, ends = _best_match_distances(candidates, series)
        want_distances, want_ends = _previous_best_match_distances(candidates, series)
        assert np.array_equal(distances, want_distances)
        assert np.array_equal(ends, want_ends)
        assert distances[0, 0] == 0.0 and ends[0, 0] == 13

    def test_best_match_distances_bit_identical_multichannel(self):
        series, _ = _three_channel_problem()
        candidates = np.stack([series[i, p : p + 8] for i, p in ((0, 3), (9, 10), (17, 30))])
        distances, ends = _best_match_distances(candidates, series)
        want_distances, want_ends = _previous_best_match_distances(candidates, series)
        assert distances.shape == (3, series.shape[0])
        assert np.array_equal(distances, want_distances)
        assert np.array_equal(ends, want_ends)


class TestPredictionOracle:
    """``predict_partial`` against the per-shapelet best-match scan."""

    @pytest.mark.parametrize("method", ["che", "kde"])
    @pytest.mark.parametrize("condition", ["normalized", "denormalized"])
    def test_gunpoint_every_checkpoint(self, method, condition, gunpoint_medium):
        train, test = gunpoint_medium
        if condition == "denormalized":
            test = denormalize_dataset(test, seed=2)
        model = EDSCClassifier(
            threshold_method=method, position_step=6, max_candidates_per_class=60
        ).fit(train.series, train.labels)
        assert _check_partials_against_oracle(model, test.series[1::5]) > 0

    def test_multichannel_every_checkpoint(self):
        series, labels = _three_channel_problem()
        model = EDSCClassifier(position_step=6, max_candidates_per_class=40).fit(
            series, labels
        )
        assert _check_partials_against_oracle(model, series[::3]) > 0

    def test_utility_tie_goes_to_the_first_shapelet(self, gunpoint_medium):
        train, test = gunpoint_medium
        model = EDSCClassifier(position_step=6, max_candidates_per_class=60).fit(
            train.series, train.labels
        )
        first = model.shapelets_[0]
        other = next(s for s in model.shapelets_ if s.label != first.label)
        # Equal utilities and infinite thresholds: both shapelets fire as
        # soon as they fit, so the list order alone decides.
        tied = [
            dataclasses.replace(shapelet, utility=0.5, threshold=np.inf)
            for shapelet in (first, other)
        ]
        for order in (tied, tied[::-1]):
            model.shapelets_ = order
            _check_partials_against_oracle(model, test.series[:3])
            final = model.predict_partial(test.series[0])
            assert final.label == order[0].label
            assert final.confidence == order[0].precision


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EDSCClassifier(threshold_method="chebby")
        with pytest.raises(ValueError):
            EDSCClassifier(chebyshev_k=0)
        with pytest.raises(ValueError):
            EDSCClassifier(target_precision=0.3)
        with pytest.raises(ValueError):
            EDSCClassifier(shapelet_length_fractions=())
        with pytest.raises(ValueError):
            EDSCClassifier(shapelet_length_fractions=(0.0,))
        with pytest.raises(ValueError):
            EDSCClassifier(position_step=0)
        with pytest.raises(ValueError):
            EDSCClassifier(max_candidates_per_class=0)


class TestTraining:
    def test_selects_shapelets(self, tiny_two_class):
        series, labels = tiny_two_class
        model = EDSCClassifier(threshold_method="che").fit(series, labels)
        assert model.shapelets_
        for shapelet in model.shapelets_:
            assert shapelet.threshold > 0
            assert shapelet.label in model.classes_
            assert 0.0 <= shapelet.precision <= 1.0

    def test_kde_variant_trains(self, tiny_two_class):
        series, labels = tiny_two_class
        model = EDSCClassifier(threshold_method="kde").fit(series, labels)
        assert model.shapelets_

    def test_shapelet_values_come_from_training_series(self, tiny_two_class):
        series, labels = tiny_two_class
        model = EDSCClassifier(threshold_method="che").fit(series, labels)
        shapelet = model.shapelets_[0]
        source = series[shapelet.source_index]
        np.testing.assert_allclose(
            shapelet.values,
            source[shapelet.source_position : shapelet.source_position + shapelet.length],
        )


class TestPrediction:
    def test_separable_problem_accuracy_and_earliness(self, tiny_two_class):
        series, labels = tiny_two_class
        model = EDSCClassifier(threshold_method="che").fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) >= 0.9
        assert model.average_earliness(series[1::2]) < 1.0

    def test_partial_on_short_prefix_not_ready(self, tiny_two_class):
        series, labels = tiny_two_class
        model = EDSCClassifier(threshold_method="che").fit(series, labels)
        shortest = min(s.length for s in model.shapelets_)
        partial = model.predict_partial(series[0][: max(shortest - 1, 1)])
        assert not partial.ready

    def test_gunpoint_normalized_vs_denormalized(self, gunpoint_medium):
        from repro.data.denormalize import denormalize_dataset

        train, test = gunpoint_medium
        model = EDSCClassifier(threshold_method="che")
        model.fit(train.series, train.labels)
        clean = model.score(test.series, test.labels)
        shifted = denormalize_dataset(test, seed=2)
        perturbed = model.score(shifted.series, shifted.labels)
        assert clean >= 0.75
        # The Table 1 phenomenon: matching raw values against thresholds
        # learned on normalised data collapses under a trivial offset.
        assert perturbed <= clean - 0.1
