"""Tests for the sharded on-disk dataset format (:mod:`repro.data.shards`)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.data.shards import (
    SHARD_SCHEMA_VERSION,
    ShardIntegrityError,
    ShardedDataset,
    file_sha256,
    synthesize_sharded_archive,
    write_shards,
)
from repro.data.ucr_format import UCRDataset
from repro.data.ucr_like import make_cbf_dataset, make_multichannel_cbf_dataset


@pytest.fixture()
def dataset():
    return make_cbf_dataset(n_per_class=8, length=48, seed=11)


@pytest.fixture()
def sharded(dataset, tmp_path):
    return write_shards(dataset, tmp_path / "ds", shard_exemplars=7)


def _source(kind: str, dataset):
    """The dataset as each accepted ``write_shards`` source."""
    if kind == "dataset":
        return dataset
    if kind == "tuple":
        return dataset.series, dataset.labels
    return (
        (dataset.series[start : start + 5], dataset.labels[start : start + 5])
        for start in range(0, dataset.n_exemplars, 5)
    )


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("source", ["dataset", "tuple", "chunks"])
@pytest.mark.parametrize("shard_exemplars", [1, 7, 24, 100])
def test_roundtrip_is_exact_for_every_source_and_shard_size(
    tmp_path, channels, source, shard_exemplars
):
    if channels == 1:
        dataset = make_cbf_dataset(n_per_class=8, length=32, seed=3)
    else:
        multichannel = make_multichannel_cbf_dataset(n_per_class=4, length=32)
        dataset = UCRDataset(
            "mv", multichannel.series[:, :, :channels], multichannel.labels
        )
    n = dataset.n_exemplars
    out = write_shards(
        _source(source, dataset), tmp_path / "ds", shard_exemplars=shard_exemplars
    )
    sizes = [out.shard_series(i).shape[0] for i in range(out.n_shards)]
    assert sizes == [shard_exemplars] * (n // shard_exemplars) + (
        [n % shard_exemplars] if n % shard_exemplars else []
    )
    reopened = ShardedDataset.open(tmp_path / "ds")
    assert reopened.n_channels == dataset.n_channels
    assert [reopened.shard_rows(i) for i in range(reopened.n_shards)] == sizes
    dense = reopened.materialize()
    np.testing.assert_array_equal(dense.series, dataset.series)
    np.testing.assert_array_equal(dense.labels, dataset.labels)
    reopened.verify()


class TestWriter:
    def test_roundtrip_series_and_labels(self, dataset, sharded):
        np.testing.assert_array_equal(sharded.materialize().series, dataset.series)
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

    def test_schema_3_writes_only_series_and_labels(self, sharded, tmp_path):
        root = tmp_path / "ds"
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["schema_version"] == SHARD_SCHEMA_VERSION == 3
        files = sorted(path.name for path in root.iterdir())
        expected = [
            f"shard-{i:04d}.{kind}.npy" for i in range(4) for kind in ("labels", "series")
        ]
        assert files == sorted(expected + ["manifest.json"])
        for entry in manifest["shards"]:
            assert set(entry) == {
                "index", "n_exemplars", "series", "series_sha256", "labels", "labels_sha256"
            }
            for kind in ("series", "labels"):
                assert entry[f"{kind}_sha256"] == file_sha256(root / entry[kind])

    def test_multichannel_roundtrip(self, tmp_path):
        dataset = make_multichannel_cbf_dataset(n_per_class=4, length=40)
        assert dataset.n_channels > 1
        out = write_shards(dataset, tmp_path / "mv", shard_exemplars=5)
        assert out.n_channels == dataset.n_channels
        assert out.shard_series(0).shape == (5, 40, dataset.n_channels)
        dense = ShardedDataset.open(tmp_path / "mv").materialize()
        np.testing.assert_array_equal(dense.series, dataset.series)
        np.testing.assert_array_equal(dense.labels, dataset.labels)

    def test_tuple_source(self, dataset, tmp_path):
        out = write_shards(
            (dataset.series, dataset.labels), tmp_path / "t", shard_exemplars=10
        )
        np.testing.assert_array_equal(out.materialize().series, dataset.series)

    def test_streaming_chunk_source_reblocks(self, dataset, tmp_path):
        def chunks():
            for start in range(0, 24, 5):  # ragged 5-row chunks
                yield dataset.series[start : start + 5], dataset.labels[start : start + 5]

        out = write_shards(chunks(), tmp_path / "s", shard_exemplars=9)
        assert [out.shard_series(i).shape[0] for i in range(out.n_shards)] == [9, 9, 6]
        np.testing.assert_array_equal(out.materialize().series, dataset.series)
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


class TestLaziness:
    def test_shard_series_is_a_memmap(self, sharded):
        assert isinstance(sharded.shard_series(0), np.memmap)

    def test_shards_concatenate_to_the_dataset(self, dataset, sharded):
        np.testing.assert_array_equal(
            np.concatenate([sharded.shard_series(i) for i in range(sharded.n_shards)]),
            dataset.series,
        )
        np.testing.assert_array_equal(
            np.concatenate([sharded.shard_labels(i) for i in range(sharded.n_shards)]),
            dataset.labels,
        )

    def test_materialize_is_the_explicit_dense_path(self, dataset, sharded):
        dense = sharded.materialize()
        assert not isinstance(dense.series, np.memmap)
        np.testing.assert_array_equal(dense.series, dataset.series)
        np.testing.assert_array_equal(dense.labels, dataset.labels)


class TestIntegrity:
    def test_verify_passes_on_untouched_files(self, sharded):
        sharded.verify()

    @pytest.mark.parametrize("shard", [0, 3])
    @pytest.mark.parametrize("kind", ["series", "labels"])
    def test_verify_catches_modified_bytes(self, sharded, tmp_path, kind, shard):
        target = tmp_path / "ds" / f"shard-{shard:04d}.{kind}.npy"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ShardIntegrityError, match="hash mismatch"):
            sharded.verify()

    @pytest.mark.parametrize("shard", [0, 3])
    @pytest.mark.parametrize("kind", ["series", "labels"])
    def test_verify_catches_missing_files(self, sharded, tmp_path, kind, shard):
        (tmp_path / "ds" / f"shard-{shard:04d}.{kind}.npy").unlink()
        with pytest.raises(ShardIntegrityError, match="missing"):
            sharded.verify()

    def test_open_rejects_other_schema_versions(self, sharded, tmp_path):
        path = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["schema_version"] = 2
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported shard schema 2"):
            ShardedDataset.open(tmp_path / "ds")

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
            np.testing.assert_array_equal(one.materialize().series, two.materialize().series)
            np.testing.assert_array_equal(one.labels, two.labels)
            one.verify()

    def test_datasets_differ_across_the_archive(self, tmp_path):
        dirs = synthesize_sharded_archive(
            tmp_path / "a", 2, n_exemplars_per_class=4, length=48, seed=5
        )
        one = ShardedDataset.open(dirs[0]).materialize().series
        two = ShardedDataset.open(dirs[1]).materialize().series
        assert not np.array_equal(one, two)

    def test_shard_zero_is_class_mixed(self, tmp_path):
        # The sweep trains on shard 0; a class-blocked layout would make
        # that split degenerate (the bug the shuffle exists to prevent).
        (directory,) = synthesize_sharded_archive(
            tmp_path / "a", 1, n_exemplars_per_class=8, length=48, seed=5
        )
        sharded = ShardedDataset.open(directory)
        assert len(np.unique(sharded.shard_labels(0))) > 1


class TestFileSha256:
    @pytest.mark.parametrize("size", [0, 1, 1 << 20, (1 << 20) + 7, 3 * (1 << 20)])
    def test_matches_hashlib_over_the_whole_file(self, tmp_path, size):
        payload = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8)
        path = tmp_path / "blob.bin"
        path.write_bytes(payload.tobytes())
        assert file_sha256(path) == hashlib.sha256(payload.tobytes()).hexdigest()

    def test_runtime_manifests_share_the_helper(self):
        import repro.runtime
        import repro.runtime.manifest

        assert repro.runtime.file_sha256 is file_sha256
        assert repro.runtime.manifest.file_sha256 is file_sha256
