"""Unit tests for the per-prefix-length probabilistic classifier."""

import numpy as np
import pytest

from repro.classifiers.cost_aware import CostAwareEarlyClassifier
from repro.classifiers.ecdire import ECDIREClassifier
from repro.classifiers.full import FixedTruncationClassifier, FullLengthClassifier
from repro.classifiers.prefix_probability import (
    PrefixProbabilisticClassifier,
    nearest_checkpoint,
)
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier

from tests.oracles.prefix_probability import predict_proba_prefix


class TestFit:
    def test_calibrated_checkpoints_cover_range(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series, labels)
        checkpoints = model.calibrated_checkpoints
        assert checkpoints[0] >= 3
        assert checkpoints[-1] == series.shape[1]

    def test_explicit_checkpoints_validated(self, tiny_two_class):
        series, labels = tiny_two_class
        with pytest.raises(ValueError):
            PrefixProbabilisticClassifier(checkpoints=[0, 10]).fit(series, labels)
        with pytest.raises(ValueError):
            PrefixProbabilisticClassifier(checkpoints=[10, 99]).fit(series, labels)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            PrefixProbabilisticClassifier().fit(np.zeros(10), ["a"])

    @pytest.mark.parametrize("length", [1, 2])
    def test_rejects_series_shorter_than_min_length(self, tiny_two_class, length):
        series, labels = tiny_two_class
        with pytest.raises(ValueError, match=rf"{length} samples.*min_length=3"):
            PrefixProbabilisticClassifier().fit(series[:, :length], labels)
        with pytest.raises(ValueError, match=rf"{length} samples.*min_length=3"):
            FullLengthClassifier().fit(series[:, :length], labels)

    def test_unfitted_query_raises(self):
        with pytest.raises(RuntimeError):
            PrefixProbabilisticClassifier().predict_proba_batch(np.zeros((1, 5)), [5])
        with pytest.raises(RuntimeError):
            PrefixProbabilisticClassifier().predict_proba_prefixes(np.zeros((1, 5)), [5])


class TestPrediction:
    def test_probabilities_sum_to_one(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series, labels)
        result = model.predict_proba_batch(series[:1], [20])[20][0]
        assert result.prefix_length == 20
        assert sum(result.probabilities.values()) == pytest.approx(1.0)
        assert 0.0 <= result.margin <= 1.0

    def test_full_prefix_classifies_correctly(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series[::2], labels[::2])
        length = series.shape[1]
        results = model.predict_proba_batch(series[1::2], [length])[length]
        assert [result.label for result in results] == labels[1::2].tolist()

    def test_confidence_grows_with_evidence(self, tiny_two_class):
        # On a separable problem, seeing more of the exemplar should (weakly)
        # increase the winner's probability.
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series[::2], labels[::2])
        length = series.shape[1]
        results = model.predict_proba_batch(series[1:2], [5, length])
        assert results[length][0].confidence >= results[5][0].confidence - 0.05

    def test_exclude_self_removes_self_match(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series, labels)
        length = series.shape[1]
        with_self = model.predict_proba_prefixes(series, [length])[length]
        without_self = model.predict_proba_prefixes(series, [length], exclude_self=True)[length]
        for kept, left_out in zip(with_self, without_self):
            assert left_out.confidence <= kept.confidence + 1e-9

    def test_exclude_self_requires_the_training_rows(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series, labels)
        with pytest.raises(ValueError, match="training set"):
            model.predict_proba_prefixes(series[:3], [10], exclude_self=True)

    def test_prefix_too_short_rejected(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier(min_length=5).fit(series, labels)
        with pytest.raises(ValueError, match="at least 5"):
            model.predict_proba_batch(series[:1], [3])
        with pytest.raises(ValueError, match="at least 5"):
            model.predict_proba_prefixes(series, [3, 10])

    def test_prefix_too_long_rejected(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series, labels)
        too_long = series.shape[1] + 1
        with pytest.raises(ValueError, match="longer than the training"):
            model.predict_proba_batch(np.zeros((1, too_long)), [too_long])

    def test_rows_shorter_than_the_prefix_rejected(self, tiny_two_class):
        series, labels = tiny_two_class
        model = PrefixProbabilisticClassifier().fit(series, labels)
        with pytest.raises(ValueError, match="shorter than the longest"):
            model.predict_proba_batch(series[:1, :10], [20])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PrefixProbabilisticClassifier(min_length=0)

    def test_evidence_is_each_class_nearest_distance(self):
        # Class "a" has exemplars at distance 1 and 5 from the query, class
        # "b" at distance 2 and 3: the evidence is (1, 2), not a mean.
        train = np.asarray(
            [[1.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]
        )
        model = PrefixProbabilisticClassifier(checkpoints=[3]).fit(
            train, ["a", "a", "b", "b"]
        )
        (got,) = model.predict_proba_batch(np.zeros((1, 3)), [3])[3]
        assert got == model._result_from_evidence({"a": 1.0, "b": 2.0}, 3)
        assert got.label == "a"


#: Prefix lengths checked against the oracle: the shortest allowed, lengths
#: between and on calibrated checkpoints, and the full length.
ORACLE_LENGTHS = (3, 4, 10, 25, 31, 59, 60)


def _datasets(gunpoint_small, gunpoint_small_raw):
    """Raw and z-normalised GunPoint, a 3-channel stack of both, three classes
    and integer data whose duplicated exemplars tie across classes."""
    (train, test), (train_raw, test_raw) = gunpoint_small, gunpoint_small_raw

    def stacked(a, b):
        return np.stack([a.series, b.series, np.cumsum(a.series, axis=1) / 10.0], axis=2)

    rng = np.random.default_rng(5)
    three = rng.normal(size=(24, 60)) + np.repeat(np.arange(3.0), 8)[:, None]
    integers = rng.integers(-2, 3, size=(10, 60)).astype(float)
    integers = np.vstack([integers, integers[:4]])
    return {
        "znormalized": (train.series, train.labels, test.series),
        "raw": (train_raw.series, train_raw.labels, test_raw.series),
        "3-channel": (stacked(train, train_raw), train.labels, stacked(test, test_raw)),
        "three-class": (three, np.repeat(["x", "y", "z"], 8), rng.normal(size=(9, 60)) + 1.0),
        "integer-ties": (
            integers,
            np.asarray(list("ab") * 5 + list("ba") * 2),
            np.vstack([integers[:4], rng.integers(-2, 3, size=(4, 60)).astype(float)]),
        ),
    }


@pytest.mark.parametrize(
    "dataset", ["znormalized", "raw", "3-channel", "three-class", "integer-ties"]
)
class TestOracleEquivalence:
    """The batched entry points against the one-prefix oracle."""

    def test_one_row_batches_match_the_oracle_exactly(
        self, dataset, gunpoint_small, gunpoint_small_raw
    ):
        # A batch of one row is what predict_partial evaluates.
        train, labels, test = _datasets(gunpoint_small, gunpoint_small_raw)[dataset]
        model = PrefixProbabilisticClassifier().fit(train, labels)
        for row in test:
            batched = model.predict_proba_batch(row[None], ORACLE_LENGTHS)
            for length in ORACLE_LENGTHS:
                (got,) = batched[length]
                want = predict_proba_prefix(model, row[:length])
                assert got.label == want.label
                assert got.margin == want.margin
                assert got.probabilities == want.probabilities
                assert got.prefix_length == want.prefix_length == length

    def test_whole_batch_matches_the_oracle(
        self, dataset, gunpoint_small, gunpoint_small_raw
    ):
        # An (n x m) distance product may round differently from the
        # oracle's (1 x m) one, so probabilities agree to round-off.
        train, labels, test = _datasets(gunpoint_small, gunpoint_small_raw)[dataset]
        model = PrefixProbabilisticClassifier().fit(train, labels)
        batched = model.predict_proba_batch(test, ORACLE_LENGTHS)
        for length in ORACLE_LENGTHS:
            for row, got in zip(test, batched[length]):
                want = predict_proba_prefix(model, row[:length])
                assert got.label == want.label
                assert got.probabilities.keys() == want.probabilities.keys()
                for cls, probability in want.probabilities.items():
                    assert abs(got.probabilities[cls] - probability) <= 1e-9

    def test_leave_one_out_sweep_matches_the_oracle(
        self, dataset, gunpoint_small, gunpoint_small_raw
    ):
        train, labels, _ = _datasets(gunpoint_small, gunpoint_small_raw)[dataset]
        model = PrefixProbabilisticClassifier().fit(train, labels)
        swept = model.predict_proba_prefixes(train, ORACLE_LENGTHS, exclude_self=True)
        for length in ORACLE_LENGTHS:
            for i, got in enumerate(swept[length]):
                want = predict_proba_prefix(model, train[i, :length], exclude=i)
                assert got.label == want.label
                assert got.probabilities.keys() == want.probabilities.keys()
                for cls, probability in want.probabilities.items():
                    assert abs(got.probabilities[cls] - probability) <= 1e-9


PROBABILISTIC_CLASSIFIERS = {
    "teaser": lambda: TEASERClassifier(n_checkpoints=6),
    "ecdire": lambda: ECDIREClassifier(n_checkpoints=6),
    "cost_aware": lambda: CostAwareEarlyClassifier(n_checkpoints=6),
    "threshold": lambda: ProbabilityThresholdClassifier(min_length=5, checkpoint_step=7),
    "full_length": FullLengthClassifier,
    "fixed_truncation": lambda: FixedTruncationClassifier(trigger_length=20),
}


@pytest.mark.parametrize("name", sorted(PROBABILISTIC_CLASSIFIERS))
def test_every_checkpoint_partial_carries_the_oracle_probabilities(name, gunpoint_small):
    """The six classifiers' shared evaluator reads 1-NN evidence at each checkpoint."""
    train, test = gunpoint_small
    model = PROBABILISTIC_CLASSIFIERS[name]().fit(train.series, train.labels)
    for row in test.series[:4]:
        for length in model.checkpoints():
            partial = model.predict_partial(row[:length])
            want = predict_proba_prefix(model._model, row[:length])
            assert partial.label == want.label
            assert partial.probabilities == want.probabilities
            assert partial.confidence == want.confidence
            assert partial.prefix_length == length


class TestNearestCheckpoint:
    @pytest.mark.parametrize(
        "checkpoints", [[7], [3, 5], [3, 6, 10, 30], [1, 2, 3, 4], [5, 9, 13, 14, 20]]
    )
    def test_matches_a_min_scan_with_the_lower_checkpoint_winning_ties(self, checkpoints):
        for length in range(0, checkpoints[-1] + 5):
            scanned = min(checkpoints, key=lambda c: abs(c - length))
            assert nearest_checkpoint(checkpoints, length) == scanned

    def test_tie_goes_to_the_lower_checkpoint(self):
        assert nearest_checkpoint([4, 8], 6) == 4
        assert nearest_checkpoint([4, 8], 7) == 8
