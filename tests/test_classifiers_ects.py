"""Unit tests for ECTS and RelaxedECTS."""

import numpy as np
import pytest

from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.ucr_like import make_multichannel_cbf_dataset

from oracles.walk import ects_partial_reference


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ECTSClassifier(min_support=-0.1)
        with pytest.raises(ValueError):
            ECTSClassifier(min_support=1.5)
        with pytest.raises(ValueError):
            ECTSClassifier(min_length=0)
        with pytest.raises(ValueError):
            ECTSClassifier(checkpoint_step=0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            ECTSClassifier().predict_partial(np.zeros(10))


class TestTraining:
    def test_mpls_within_valid_range(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ECTSClassifier(checkpoint_step=2).fit(series, labels)
        assert model.mpl_ is not None
        assert np.all(model.mpl_ >= model.min_length)
        assert np.all(model.mpl_ <= series.shape[1])

    def test_support_within_unit_interval(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ECTSClassifier(checkpoint_step=2).fit(series, labels)
        assert model.support_ is not None
        assert np.all(model.support_ >= 0.0)
        assert np.all(model.support_ <= 1.0)

    def test_relaxed_mpls_never_longer_than_strict(self, tiny_two_class):
        series, labels = tiny_two_class
        strict = ECTSClassifier(checkpoint_step=2).fit(series, labels)
        relaxed = RelaxedECTSClassifier(checkpoint_step=2).fit(series, labels)
        assert np.all(relaxed.mpl_ <= strict.mpl_)

    def test_high_min_support_disables_some_exemplars(self, tiny_two_class):
        series, labels = tiny_two_class
        permissive = ECTSClassifier(min_support=0.0, checkpoint_step=2).fit(series, labels)
        strict = ECTSClassifier(min_support=0.9, checkpoint_step=2).fit(series, labels)
        assert strict._eligible.sum() <= permissive._eligible.sum()


class TestPrediction:
    def test_separable_problem_accuracy(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ECTSClassifier(checkpoint_step=2).fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) >= 0.9

    def test_triggers_before_full_length_on_separable_problem(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ECTSClassifier(checkpoint_step=2).fit(series[::2], labels[::2])
        assert model.average_earliness(series[1::2]) < 1.0

    def test_relaxed_at_least_as_early_as_strict(self, tiny_two_class):
        series, labels = tiny_two_class
        strict = ECTSClassifier(checkpoint_step=2).fit(series[::2], labels[::2])
        relaxed = RelaxedECTSClassifier(checkpoint_step=2).fit(series[::2], labels[::2])
        assert relaxed.average_earliness(series[1::2]) <= strict.average_earliness(series[1::2]) + 1e-9

    def test_partial_prediction_fields(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ECTSClassifier(checkpoint_step=2).fit(series, labels)
        partial = model.predict_partial(series[0][:10])
        assert partial.label in model.classes_
        assert 0.0 <= partial.confidence <= 1.0
        assert sum(partial.probabilities.values()) == pytest.approx(1.0)

    def test_gunpoint_accuracy_band(self, gunpoint_medium):
        train, test = gunpoint_medium
        model = ECTSClassifier(min_support=0.0, checkpoint_step=2)
        model.fit(train.series, train.labels)
        accuracy = model.score(test.series, test.labels)
        assert accuracy >= 0.7

    def test_denormalization_hurts_accuracy(self, gunpoint_medium):
        from repro.data.denormalize import denormalize_dataset

        train, test = gunpoint_medium
        model = ECTSClassifier(min_support=0.0, checkpoint_step=2)
        model.fit(train.series, train.labels)
        clean = model.score(test.series, test.labels)
        shifted = denormalize_dataset(test, seed=1)
        perturbed = model.score(shifted.series, shifted.labels)
        assert perturbed < clean


class TestPredictPartialOracle:
    """``predict_partial`` equals the oracle's statistics on a one-row sweep."""

    @pytest.mark.parametrize("data", ["znormalized", "raw", "3-channel"])
    def test_every_checkpoint_matches_exactly(self, data, gunpoint_small, gunpoint_small_raw):
        if data == "3-channel":
            dataset = make_multichannel_cbf_dataset(n_per_class=8, length=48, n_channels=3)
            n = dataset.series.shape[0]
            train, test = dataset.subset(range(0, n, 2)), dataset.subset(range(1, n, 2))
        else:
            train, test = gunpoint_small if data == "znormalized" else gunpoint_small_raw
        model = ECTSClassifier(min_support=0.0).fit(train.series, train.labels)
        for row in test.series[:5]:
            for length in model.checkpoints():
                got = model.predict_partial(row[:length])
                distances = np.sqrt(model._engine.open(row[:length]).advance_to(length)[0])
                want = ects_partial_reference(model, distances, length)
                assert got == want, length

    def test_predict_partial_equals_the_batched_checkpoint(self):
        """A one-shot prefix sweep and a sweep advanced ten samples at a time agree exactly.

        ``predict_partial`` advances its one-row sweep straight to the prefix
        length; the batched walk advances a shared sweep checkpoint by
        checkpoint.  Both add the squared terms in time order, so every
        label, readiness and confidence is the same to the last bit.
        """
        train, test = make_gunpoint_dataset(seed=7)
        model = ECTSClassifier(checkpoint_step=10).fit(train.series, train.labels)
        rows = test.series[:40]
        checkpoints = model._batch_partial_evaluators(rows)
        assert len(checkpoints) == 16
        for checkpoint in checkpoints:
            for i, row in enumerate(rows):
                got = model.predict_partial(row[: checkpoint.length])
                want = checkpoint.partial(i)
                assert (got.label, got.ready, got.confidence) == (
                    want.label,
                    want.ready,
                    want.confidence,
                ), (checkpoint.length, i)
