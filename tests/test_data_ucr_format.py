"""Unit tests for repro.data.ucr_format."""

import numpy as np
import pytest

from repro.data.ucr_format import UCRDataset, train_test_split


def _assert_rows_znormalized(series: np.ndarray) -> None:
    np.testing.assert_allclose(series.mean(axis=1), 0.0, atol=1e-9)
    np.testing.assert_allclose(series.std(axis=1), 1.0, atol=1e-9)


def _toy_dataset(n_per_class: int = 4, length: int = 10) -> UCRDataset:
    rng = np.random.default_rng(0)
    series = rng.standard_normal((2 * n_per_class, length))
    labels = np.asarray(["a"] * n_per_class + ["b"] * n_per_class)
    return UCRDataset(name="toy", series=series, labels=labels)


class TestConstruction:
    def test_basic_properties(self):
        dataset = _toy_dataset()
        assert len(dataset) == 8
        assert dataset.n_exemplars == 8
        assert dataset.series_length == 10
        assert dataset.classes == ("a", "b")
        assert dataset.n_classes == 2
        assert dataset.class_counts() == {"a": 4, "b": 4}

    def test_rejects_1d_series(self):
        with pytest.raises(ValueError):
            UCRDataset(name="bad", series=np.zeros(5), labels=np.array(["a"]))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            UCRDataset(name="bad", series=np.zeros((3, 5)), labels=np.array(["a", "b"]))

    def test_rejects_non_finite(self):
        series = np.zeros((2, 4))
        series[0, 0] = np.nan
        with pytest.raises(ValueError):
            UCRDataset(name="bad", series=series, labels=np.array(["a", "b"]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UCRDataset(name="bad", series=np.zeros((0, 5)), labels=np.array([]))


class TestTransforms:
    def test_z_normalized_sets_flag_and_normalises(self):
        dataset = _toy_dataset()
        normalized = dataset.z_normalized()
        assert normalized.znormalized
        _assert_rows_znormalized(normalized.series)
        assert not dataset.znormalized  # original untouched

    def test_truncated_keeps_prefix(self):
        dataset = _toy_dataset()
        truncated = dataset.truncated(4)
        assert truncated.series_length == 4
        np.testing.assert_allclose(truncated.series, dataset.series[:, :4])
        assert truncated.metadata["truncated_to"] == 4

    def test_truncated_renormalize(self):
        dataset = _toy_dataset()
        truncated = dataset.truncated(5, renormalize=True)
        assert truncated.znormalized
        _assert_rows_znormalized(truncated.series)

    def test_truncated_rejects_bad_length(self):
        dataset = _toy_dataset()
        with pytest.raises(ValueError):
            dataset.truncated(0)
        with pytest.raises(ValueError):
            dataset.truncated(99)

    def test_subset_preserves_alignment(self):
        dataset = _toy_dataset()
        subset = dataset.subset([0, 5, 7])
        assert subset.n_exemplars == 3
        np.testing.assert_allclose(subset.series[1], dataset.series[5])
        assert subset.labels[1] == dataset.labels[5]

    def test_subset_rejects_empty(self):
        with pytest.raises(ValueError):
            _toy_dataset().subset([])

    def test_exemplars_of_class(self):
        dataset = _toy_dataset()
        rows = dataset.exemplars_of_class("a")
        assert rows.shape == (4, 10)

    def test_exemplars_of_unknown_class_raises(self):
        with pytest.raises(KeyError):
            _toy_dataset().exemplars_of_class("zzz")

    def test_shuffled_preserves_multiset(self):
        dataset = _toy_dataset()
        shuffled = dataset.shuffled(np.random.default_rng(1))
        assert sorted(shuffled.labels.tolist()) == sorted(dataset.labels.tolist())
        assert shuffled.series.sum() == pytest.approx(dataset.series.sum())

    def test_concatenate(self):
        a = _toy_dataset()
        b = _toy_dataset()
        combined = a.concatenate(b)
        assert combined.n_exemplars == 16

    def test_concatenate_length_mismatch(self):
        a = _toy_dataset(length=10)
        b = _toy_dataset(length=12)
        with pytest.raises(ValueError):
            a.concatenate(b)


class TestTSVRoundTrip:
    def test_round_trip_preserves_values(self, tmp_path):
        dataset = _toy_dataset()
        path = dataset.to_tsv(tmp_path / "toy.tsv")
        loaded = UCRDataset.from_tsv(path)
        np.testing.assert_allclose(loaded.series, dataset.series, rtol=1e-9)
        assert list(loaded.labels) == list(dataset.labels)

    def test_integer_labels_preserved_as_int(self):
        series = np.arange(12.0).reshape(3, 4)
        dataset = UCRDataset(name="ints", series=series, labels=np.array([1, 2, 1]))
        loaded = UCRDataset.from_tsv_string(dataset.to_tsv_string())
        assert loaded.labels.dtype.kind == "i"

    def test_comma_separated_accepted(self):
        text = "a,1,2,3\nb,4,5,6\n"
        dataset = UCRDataset.from_tsv_string(text)
        assert dataset.n_exemplars == 2
        assert dataset.series_length == 3

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            UCRDataset.from_tsv_string("a\t1\t2\nb\t3\n")

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            UCRDataset.from_tsv_string("\n\n")

    def test_rejects_row_without_values(self):
        with pytest.raises(ValueError):
            UCRDataset.from_tsv_string("a\n")


class TestTrainTestSplit:
    def test_stratified_split_preserves_classes(self):
        dataset = _toy_dataset(n_per_class=8)
        train, test = train_test_split(dataset, train_fraction=0.25)
        assert set(train.classes) == {"a", "b"}
        assert set(test.classes) == {"a", "b"}
        assert train.n_exemplars + test.n_exemplars == dataset.n_exemplars

    def test_partitions_are_disjoint(self):
        dataset = _toy_dataset(n_per_class=8)
        train, test = train_test_split(dataset, train_fraction=0.5)
        train_rows = {tuple(row) for row in train.series}
        test_rows = {tuple(row) for row in test.series}
        assert not train_rows & test_rows

    def test_fraction_bounds(self):
        dataset = _toy_dataset()
        with pytest.raises(ValueError):
            train_test_split(dataset, train_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(dataset, train_fraction=1.0)

    def test_unstratified_split(self):
        dataset = _toy_dataset(n_per_class=10)
        train, test = train_test_split(dataset, train_fraction=0.3, stratified=False)
        assert train.n_exemplars + test.n_exemplars == dataset.n_exemplars

    def test_names_annotated(self):
        dataset = _toy_dataset()
        train, test = train_test_split(dataset)
        assert train.name.endswith("-train")
        assert test.name.endswith("-test")
