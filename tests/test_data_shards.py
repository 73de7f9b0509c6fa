"""Tests for the sharded on-disk dataset format (:mod:`repro.data.shards`)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data.shards import (
    ShardIntegrityError,
    ShardedDataset,
    ShardedSeriesView,
    synthesize_sharded_archive,
    write_shards,
)
from repro.data.ucr_like import make_cbf_dataset, make_multichannel_cbf_dataset
from repro.memory import memory_budget


@pytest.fixture()
def dataset():
    return make_cbf_dataset(n_per_class=8, length=48, seed=11)


@pytest.fixture()
def sharded(dataset, tmp_path):
    return write_shards(dataset, tmp_path / "ds", shard_exemplars=7)


class TestWriter:
    def test_roundtrip_series_and_labels(self, dataset, sharded):
        np.testing.assert_array_equal(np.asarray(sharded.series), dataset.series)
        np.testing.assert_array_equal(sharded.labels, dataset.labels)
        assert sharded.name == dataset.name
        assert sharded.n_exemplars == dataset.n_exemplars
        assert sharded.series_length == dataset.series_length
        assert sharded.classes == dataset.classes
        assert sharded.class_counts() == dataset.class_counts()

    def test_shard_layout(self, dataset, sharded, tmp_path):
        # 24 exemplars in shards of 7 -> 7, 7, 7, 3.
        assert sharded.n_shards == 4
        sizes = [sharded.shard_series(i).shape[0] for i in range(4)]
        assert sizes == [7, 7, 7, 3]
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["format"] == "repro-shards"
        assert manifest["n_exemplars"] == 24
        assert len(manifest["shards"]) == 4

    def test_tuple_source(self, dataset, tmp_path):
        out = write_shards(
            (dataset.series, dataset.labels), tmp_path / "t", shard_exemplars=10
        )
        np.testing.assert_array_equal(np.asarray(out.series), dataset.series)

    def test_streaming_chunk_source_reblocks(self, dataset, tmp_path):
        def chunks():
            for start in range(0, 24, 5):  # ragged 5-row chunks
                yield dataset.series[start : start + 5], dataset.labels[start : start + 5]

        out = write_shards(chunks(), tmp_path / "s", shard_exemplars=9)
        assert [out.shard_series(i).shape[0] for i in range(out.n_shards)] == [9, 9, 6]
        np.testing.assert_array_equal(np.asarray(out.series), dataset.series)
        np.testing.assert_array_equal(out.labels, dataset.labels)

    def test_refuses_to_overwrite_without_flag(self, dataset, sharded, tmp_path):
        with pytest.raises(FileExistsError):
            write_shards(dataset, tmp_path / "ds")
        write_shards(dataset, tmp_path / "ds", overwrite=True)  # explicit is fine

    def test_rejects_non_finite_series(self, dataset, tmp_path):
        bad = dataset.series.copy()
        bad[3, 10] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            write_shards((bad, dataset.labels), tmp_path / "bad")

    def test_rejects_inconsistent_chunk_lengths(self, tmp_path):
        def chunks():
            yield np.zeros((2, 8)), np.zeros(2)
            yield np.zeros((2, 9)), np.zeros(2)

        with pytest.raises(ValueError, match="length"):
            write_shards(chunks(), tmp_path / "bad")

    def test_rejects_empty_source(self, tmp_path):
        with pytest.raises(ValueError, match="no exemplars"):
            write_shards(iter(()), tmp_path / "empty")

    def test_znorm_stats_header(self, dataset, sharded):
        means, stds = sharded.shard_stats(0)
        np.testing.assert_allclose(means, dataset.series[:7].mean(axis=1))
        np.testing.assert_allclose(stds, dataset.series[:7].std(axis=1))


class TestLaziness:
    def test_shard_series_is_a_memmap(self, sharded):
        assert isinstance(sharded.shard_series(0), np.memmap)

    def test_shard_dataset_keeps_the_memmap(self, sharded):
        # The whole point: building the UCRDataset view must not materialise
        # (or even scan) the shard.
        view = sharded.shard_dataset(1)
        assert isinstance(view.series, np.memmap)
        assert view.n_exemplars == 7
        assert view.metadata["shard_index"] == 1

    def test_series_view_is_lazy_and_indexable(self, dataset, sharded):
        view = sharded.series
        assert isinstance(view, ShardedSeriesView)
        assert view.shape == dataset.series.shape
        assert len(view) == 24
        np.testing.assert_array_equal(view[5], dataset.series[5])
        np.testing.assert_array_equal(view[-1], dataset.series[-1])
        np.testing.assert_array_equal(view[3:20], dataset.series[3:20])
        np.testing.assert_array_equal(view[[0, 9, 23]], dataset.series[[0, 9, 23]])
        mask = np.zeros(24, dtype=bool)
        mask[[2, 8]] = True
        np.testing.assert_array_equal(view[mask], dataset.series[mask])

    def test_series_view_rejects_out_of_range(self, sharded):
        with pytest.raises(IndexError):
            sharded.series[24]

    def test_iter_batches_respects_the_budget(self, dataset, sharded):
        # 48 float64 samples/row = 384 bytes; a 1 KiB budget caps rows at 2.
        with memory_budget(1024):
            batches = list(sharded.iter_batches())
        assert max(series.shape[0] for series, _ in batches) <= 2
        np.testing.assert_array_equal(
            np.concatenate([series for series, _ in batches]), dataset.series
        )
        np.testing.assert_array_equal(
            np.concatenate([labels for _, labels in batches]), dataset.labels
        )

    def test_iter_batches_budget_counts_every_channel(self, tmp_path):
        dataset = make_multichannel_cbf_dataset(n_per_class=4, length=40)
        assert dataset.n_channels > 1
        sharded = write_shards(dataset, tmp_path / "mv", shard_exemplars=5)
        row_bytes = dataset.series_length * dataset.n_channels * 8
        with memory_budget(2 * row_bytes):
            batches = list(sharded.iter_batches())
        assert max(series.shape[0] for series, _ in batches) == 2
        np.testing.assert_array_equal(
            np.concatenate([series for series, _ in batches]), dataset.series
        )

    def test_iter_shards_covers_everything(self, dataset, sharded):
        stacked = np.concatenate([shard.series for shard in sharded.iter_shards()])
        np.testing.assert_array_equal(stacked, dataset.series)

    def test_materialize_is_the_explicit_dense_path(self, dataset, sharded):
        dense = sharded.materialize()
        assert not isinstance(dense.series, np.memmap)
        np.testing.assert_array_equal(dense.series, dataset.series)
        np.testing.assert_array_equal(dense.labels, dataset.labels)


class TestIntegrity:
    def test_verify_passes_on_untouched_files(self, sharded):
        sharded.verify()

    def test_verify_catches_modified_bytes(self, sharded, tmp_path):
        target = tmp_path / "ds" / "shard-0001.series.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ShardIntegrityError, match="hash mismatch"):
            sharded.verify()

    def test_verify_catches_missing_files(self, sharded, tmp_path):
        (tmp_path / "ds" / "shard-0002.labels.npy").unlink()
        with pytest.raises(ShardIntegrityError, match="missing"):
            sharded.verify()

    def test_open_rejects_non_manifest_directories(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedDataset.open(tmp_path)
        (tmp_path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a repro shard manifest"):
            ShardedDataset.open(tmp_path)


class TestSyntheticArchive:
    def test_archive_is_deterministic_and_self_contained(self, tmp_path):
        dirs = synthesize_sharded_archive(
            tmp_path / "a", 3, n_exemplars_per_class=4, length=48, seed=5
        )
        again = synthesize_sharded_archive(
            tmp_path / "b", 3, n_exemplars_per_class=4, length=48, seed=5
        )
        assert len(dirs) == 3
        for left, right in zip(dirs, again):
            one, two = ShardedDataset.open(left), ShardedDataset.open(right)
            np.testing.assert_array_equal(np.asarray(one.series), np.asarray(two.series))
            np.testing.assert_array_equal(one.labels, two.labels)
            one.verify()

    def test_datasets_differ_across_the_archive(self, tmp_path):
        dirs = synthesize_sharded_archive(
            tmp_path / "a", 2, n_exemplars_per_class=4, length=48, seed=5
        )
        one = np.asarray(ShardedDataset.open(dirs[0]).series)
        two = np.asarray(ShardedDataset.open(dirs[1]).series)
        assert not np.array_equal(one, two)

    def test_shard_zero_is_class_mixed(self, tmp_path):
        # The sweep trains on shard 0; a class-blocked layout would make
        # that split degenerate (the bug the shuffle exists to prevent).
        (directory,) = synthesize_sharded_archive(
            tmp_path / "a", 1, n_exemplars_per_class=8, length=48, seed=5
        )
        sharded = ShardedDataset.open(directory)
        assert len(np.unique(sharded.shard_labels(0))) > 1
