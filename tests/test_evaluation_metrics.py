"""Unit tests for repro.evaluation (accuracy, earliness, significance, runner)."""

import numpy as np
import pytest

from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.ucr_format import UCRDataset
from repro.evaluation.accuracy import accuracy, confusion_counts, error_rate, per_class_accuracy
from repro.evaluation.earliness import (
    evaluate_early_classifier,
    harmonic_mean_accuracy_earliness,
)
from repro.evaluation.runner import fit_and_score, prefix_accuracy_curve
from repro.evaluation.significance import mcnemar_test, two_proportion_z_test


class TestAccuracyMetrics:
    def test_accuracy_and_error(self):
        predictions = ["a", "a", "b", "b"]
        truth = ["a", "b", "b", "b"]
        assert accuracy(predictions, truth) == pytest.approx(0.75)
        assert error_rate(predictions, truth) == pytest.approx(0.25)

    def test_per_class_accuracy(self):
        predictions = ["a", "a", "b", "b"]
        truth = ["a", "b", "b", "b"]
        result = per_class_accuracy(predictions, truth)
        assert result["a"] == 1.0
        assert result["b"] == pytest.approx(2 / 3)

    def test_confusion_counts(self):
        counts = confusion_counts(["a", "b", "a"], ["a", "a", "b"])
        assert counts[("a", "a")] == 1
        assert counts[("a", "b")] == 1
        assert counts[("b", "a")] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy(["a"], ["a", "b"])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestHarmonicMean:
    def test_perfect_scores(self):
        assert harmonic_mean_accuracy_earliness(1.0, 0.0) == pytest.approx(1.0)

    def test_zero_when_both_worthless(self):
        assert harmonic_mean_accuracy_earliness(0.0, 1.0) == 0.0

    def test_penalises_late_triggering(self):
        early = harmonic_mean_accuracy_earliness(0.9, 0.2)
        late = harmonic_mean_accuracy_earliness(0.9, 0.8)
        assert early > late

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            harmonic_mean_accuracy_earliness(1.2, 0.5)
        with pytest.raises(ValueError):
            harmonic_mean_accuracy_earliness(0.5, -0.1)


class TestEvaluateEarlyClassifier:
    def test_result_fields(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ProbabilityThresholdClassifier(threshold=0.8, min_length=4).fit(
            series[::2], labels[::2]
        )
        result = evaluate_early_classifier(model, series[1::2], labels[1::2])
        assert result.n_exemplars == 10
        assert 0.0 <= result.accuracy <= 1.0
        assert 0.0 < result.earliness <= 1.0
        assert 0.0 <= result.trigger_rate <= 1.0
        assert result.mean_trigger_length <= series.shape[1]
        assert 0.0 <= result.harmonic_mean <= 1.0

    def test_validation(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ProbabilityThresholdClassifier(min_length=4).fit(series, labels)
        with pytest.raises(ValueError):
            evaluate_early_classifier(model, series, labels[:-1])
        with pytest.raises(ValueError):
            evaluate_early_classifier(model, series[0], labels[:1])

    def test_batch_flag_gives_identical_metrics(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ProbabilityThresholdClassifier(min_length=4).fit(series[::2], labels[::2])
        fast = evaluate_early_classifier(model, series[1::2], labels[1::2], batch=True)
        slow = evaluate_early_classifier(model, series[1::2], labels[1::2], batch=False)
        assert fast == slow


class TestEvaluateEarlyClassifierEdgeCases:
    """Empty, singleton and trigger-free test sets; batched == per-row on all."""

    def _fitted(self, tiny_two_class, threshold=0.8):
        series, labels = tiny_two_class
        return ProbabilityThresholdClassifier(threshold=threshold, min_length=4).fit(
            series, labels
        )

    @staticmethod
    def _both(model, series, labels):
        return (
            evaluate_early_classifier(model, series, labels, batch=True),
            evaluate_early_classifier(model, series, labels, batch=False),
        )

    def test_empty_test_set(self, tiny_two_class):
        series, _ = tiny_two_class
        model = self._fitted(tiny_two_class)
        empty = np.empty((0, series.shape[1]))
        fast, slow = self._both(model, empty, np.empty(0))
        assert fast == slow
        assert fast.n_exemplars == 0
        assert fast.accuracy == 0.0
        assert fast.earliness == 0.0
        assert fast.harmonic_mean == 0.0
        assert fast.trigger_rate == 0.0
        assert fast.mean_trigger_length == 0.0

    def test_single_exemplar(self, tiny_two_class):
        series, labels = tiny_two_class
        model = self._fitted(tiny_two_class)
        fast, slow = self._both(model, series[:1], labels[:1])
        assert fast == slow
        assert fast.n_exemplars == 1
        assert fast.accuracy in (0.0, 1.0)

    def test_classifier_that_never_triggers(self, tiny_two_class):
        series, labels = tiny_two_class
        # A softmax over two classes never reaches probability 1.0 exactly,
        # so threshold=1.0 yields trigger_rate 0 on every exemplar.
        model = self._fitted(tiny_two_class, threshold=1.0)
        fast, slow = self._both(model, series, labels)
        assert fast == slow
        assert fast.trigger_rate == 0.0
        assert fast.earliness == 1.0
        assert fast.mean_trigger_length == series.shape[1]


class TestSignificance:
    def test_identical_proportions_not_significant(self):
        result = two_proportion_z_test(90, 100, 90, 100)
        assert not result.significant
        assert result.p_value == pytest.approx(1.0)

    def test_large_difference_significant(self):
        result = two_proportion_z_test(95, 100, 55, 100)
        assert result.significant
        assert result.p_value < 0.001

    def test_degenerate_all_successes(self):
        result = two_proportion_z_test(100, 100, 100, 100)
        assert not result.significant

    def test_validation(self):
        with pytest.raises(ValueError):
            two_proportion_z_test(5, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_z_test(11, 10, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_z_test(1, 10, 1, 10, alpha=2.0)

    def test_mcnemar_no_discordance(self):
        result = mcnemar_test(50, 0, 0, 10)
        assert not result.significant

    def test_mcnemar_strong_discordance(self):
        result = mcnemar_test(50, 40, 2, 10)
        assert result.significant

    def test_mcnemar_validation(self):
        with pytest.raises(ValueError):
            mcnemar_test(-1, 0, 0, 0)

    def test_p_values_equal_scipy_stats(self):
        """The ``scipy.special`` kernels give ``scipy.stats``'s p-values exactly."""
        from scipy import stats

        rng = np.random.default_rng(4)
        for _ in range(300):
            total_a, total_b = (int(n) for n in rng.integers(1, 400, size=2))
            a, b = int(rng.integers(0, total_a + 1)), int(rng.integers(0, total_b + 1))
            result = two_proportion_z_test(a, total_a, b, total_b)
            expected = 2.0 * (1.0 - stats.norm.cdf(abs(result.statistic)))
            assert result.p_value == float(expected)
            result = mcnemar_test(*(int(n) for n in rng.integers(0, 60, size=4)))
            assert result.p_value == float(stats.chi2.sf(result.statistic, df=1))


class TestRunner:
    def _datasets(self, tiny_two_class):
        series, labels = tiny_two_class
        train = UCRDataset(name="train", series=series[::2], labels=labels[::2])
        test = UCRDataset(name="test", series=series[1::2], labels=labels[1::2])
        return train, test

    def test_fit_and_score(self, tiny_two_class):
        train, test = self._datasets(tiny_two_class)
        result = fit_and_score(ProbabilityThresholdClassifier(min_length=4), train, test)
        assert result.accuracy >= 0.9

    def test_fit_and_score_length_mismatch(self, tiny_two_class):
        train, test = self._datasets(tiny_two_class)
        short = UCRDataset(name="short", series=test.series[:, :10], labels=test.labels)
        with pytest.raises(ValueError):
            fit_and_score(ProbabilityThresholdClassifier(min_length=4), train, short)

    def test_prefix_accuracy_curve_monotone_lengths(self, tiny_two_class):
        train, test = self._datasets(tiny_two_class)
        curve = prefix_accuracy_curve(train, test, [10, 20, 40])
        assert set(curve) == {10, 20, 40}
        assert all(0.0 <= v <= 1.0 for v in curve.values())

    def test_prefix_accuracy_curve_validates_lengths(self, tiny_two_class):
        train, test = self._datasets(tiny_two_class)
        with pytest.raises(ValueError):
            prefix_accuracy_curve(train, test, [0])
        with pytest.raises(ValueError):
            prefix_accuracy_curve(train, test, [999])
