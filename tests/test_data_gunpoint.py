"""Unit tests for the synthetic GunPoint generator."""

import numpy as np
import pytest

from repro.data.gunpoint import GUN, POINT, GunPointGenerator, make_gunpoint_dataset
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier


class TestGenerator:
    def test_exemplar_length(self):
        generator = GunPointGenerator(length=150, seed=1)
        assert generator.exemplar(GUN).shape == (150,)
        assert generator.exemplar(POINT).shape == (150,)

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            GunPointGenerator().exemplar("sword")

    def test_rejects_too_short_length(self):
        with pytest.raises(ValueError):
            GunPointGenerator(length=10)

    def test_deterministic_given_seed(self):
        a = GunPointGenerator(seed=42).generate(n_per_class=3)
        b = GunPointGenerator(seed=42).generate(n_per_class=3)
        np.testing.assert_allclose(a.series, b.series)

    def test_different_seeds_differ(self):
        a = GunPointGenerator(seed=1).generate(n_per_class=3)
        b = GunPointGenerator(seed=2).generate(n_per_class=3)
        assert not np.allclose(a.series, b.series)

    def test_balanced_classes(self):
        dataset = GunPointGenerator(seed=3).generate(n_per_class=7)
        assert dataset.class_counts() == {GUN: 7, POINT: 7}

    def test_resting_tail_is_flat(self):
        # The last third of the exemplar is the resting-hand plateau: its
        # variance should be far smaller than the variance of the action part.
        generator = GunPointGenerator(seed=4)
        exemplar = generator.exemplar(GUN)
        tail = exemplar[120:]
        action = exemplar[30:100]
        assert np.std(tail) < 0.25 * np.std(action)

    def test_gun_class_has_deeper_early_dip(self):
        # The class-discriminating fumble: gun exemplars dip below the rest
        # level early on; point exemplars do not (on average).
        generator = GunPointGenerator(seed=5)
        rng = np.random.default_rng(0)
        gun_minima = [generator.exemplar(GUN, rng).min() for _ in range(20)]
        point_minima = [generator.exemplar(POINT, rng).min() for _ in range(20)]
        assert np.mean(gun_minima) < np.mean(point_minima) - 0.1

    def test_discriminative_region_within_first_half(self):
        start, end = GunPointGenerator(seed=6).discriminative_region()
        assert 0 < start < end < 75


class TestMakeGunpointDataset:
    def test_split_sizes(self):
        train, test = make_gunpoint_dataset(n_train_per_class=5, n_test_per_class=10)
        assert train.n_exemplars == 10
        assert test.n_exemplars == 20

    def test_znormalized_by_default(self):
        train, test = make_gunpoint_dataset(n_train_per_class=5, n_test_per_class=5)
        for dataset in (train, test):
            assert dataset.znormalized
            np.testing.assert_allclose(dataset.series.mean(axis=1), 0.0, atol=1e-9)
            np.testing.assert_allclose(dataset.series.std(axis=1), 1.0, atol=1e-9)

    def test_raw_option(self):
        train, _ = make_gunpoint_dataset(n_train_per_class=5, n_test_per_class=5, znormalize=False)
        assert not train.znormalized

    def test_train_and_test_disjoint(self):
        train, test = make_gunpoint_dataset(n_train_per_class=5, n_test_per_class=5, znormalize=False)
        train_rows = {tuple(np.round(row, 6)) for row in train.series}
        test_rows = {tuple(np.round(row, 6)) for row in test.series}
        assert not train_rows & test_rows

    def test_full_split_accuracy_matches_real_gunpoint_band(self):
        # The headline property: 1-NN accuracy on the standard 25/75 split is
        # in the low 90s, like the archive's GunPoint (91.3% with ED).
        train, test = make_gunpoint_dataset()
        model = KNeighborsTimeSeriesClassifier().fit(train.series, train.labels)
        accuracy = model.score(test.series, test.labels)
        assert 0.85 <= accuracy <= 0.98

    def test_prefix_supports_full_accuracy(self):
        # The Fig. 9 property: a prefix of roughly a third of the exemplar
        # already matches (or beats) full-length accuracy.
        train, test = make_gunpoint_dataset(znormalize=False)
        full_train = train.truncated(150, renormalize=True)
        full_test = test.truncated(150, renormalize=True)
        model = KNeighborsTimeSeriesClassifier().fit(full_train.series, full_train.labels)
        full_accuracy = model.score(full_test.series, full_test.labels)

        prefix_train = train.truncated(50, renormalize=True)
        prefix_test = test.truncated(50, renormalize=True)
        prefix_model = KNeighborsTimeSeriesClassifier().fit(prefix_train.series, prefix_train.labels)
        prefix_accuracy = prefix_model.score(prefix_test.series, prefix_test.labels)
        assert prefix_accuracy >= full_accuracy - 0.01

    def test_very_short_prefix_near_chance(self):
        # Before the action starts, the two classes are indistinguishable.
        train, test = make_gunpoint_dataset(znormalize=False)
        prefix_train = train.truncated(20, renormalize=True)
        prefix_test = test.truncated(20, renormalize=True)
        model = KNeighborsTimeSeriesClassifier().fit(prefix_train.series, prefix_train.labels)
        accuracy = model.score(prefix_test.series, prefix_test.labels)
        assert accuracy <= 0.70
