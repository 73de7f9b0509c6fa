"""Multichannel (n, L, d) correctness: naive references and d=1 bit-equality.

Two guards hold the multichannel data model together:

* every vectorised ``d > 1`` kernel is pinned to a naive per-channel Python
  loop (channel-summed squared differences, per-channel z-norm statistics)
  to ``<= 1e-10``;
* every classifier and normalisation mode produces bit-identical results on
  a ``(n, L, 1)`` tensor and the legacy 2-D ``(n, L)`` layout, so golden
  summaries cannot drift from the univariate seed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.classifiers.ects import ECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.shards import SHARD_SCHEMA_VERSION, ShardedDataset, write_shards
from repro.data.ucr_like import make_multichannel_cbf_dataset
from repro.distance.engine import batch_prefix_distances
from repro.distance.znorm import causal_znormalize, znormalize
from repro.streaming.online import causal_znormalize_batch

RNG = np.random.default_rng(20260808)

ATOL = 1e-10


def _naive_prefix_distance(query: np.ndarray, train_row: np.ndarray, length: int) -> float:
    """Channel-summed prefix Euclidean distance via explicit Python loops."""
    total = 0.0
    for t in range(length):
        for c in range(query.shape[1]):
            diff = query[t, c] - train_row[t, c]
            total += diff * diff
    return float(np.sqrt(total))


def _naive_causal_znorm(window: np.ndarray) -> np.ndarray:
    """Per-channel causal z-norm: each step uses only samples seen so far."""
    out = np.zeros_like(window)
    for c in range(window.shape[1]):
        for t in range(window.shape[0]):
            seen = window[: t + 1, c]
            std = seen.std()
            if std >= 1e-12:
                out[t, c] = (window[t, c] - seen.mean()) / std
    return out


class TestPrefixEuclideanNaive:
    def test_batch_prefix_distances_match_per_channel_loop(self):
        queries = RNG.normal(size=(4, 12, 3))
        train = RNG.normal(size=(5, 15, 3))
        lengths = [1, 4, 12]
        result = batch_prefix_distances(queries, train, lengths)
        assert result.shape == (len(lengths), queries.shape[0], train.shape[0])
        for qi in range(queries.shape[0]):
            for ti in range(train.shape[0]):
                for li, length in enumerate(lengths):
                    expected = _naive_prefix_distance(queries[qi], train[ti], length)
                    assert abs(result[li, qi, ti] - expected) <= ATOL


class TestCausalZnormNaive:
    def test_causal_znormalize_matches_per_channel_loop(self):
        # A trailing window spanning the whole stream with min_periods=1 is
        # the expanding (every-sample-seen-so-far) statistic.
        window = RNG.normal(size=(20, 3))
        result = causal_znormalize(
            window, window=20, min_periods=1, channel_axis=-1
        )
        assert np.allclose(result, _naive_causal_znorm(window), atol=ATOL)

    def test_causal_znormalize_trailing_window_matches_loop(self):
        window = RNG.normal(size=(20, 3))
        trailing = 6
        result = causal_znormalize(
            window, window=trailing, min_periods=1, channel_axis=-1
        )
        expected = np.zeros_like(window)
        for c in range(window.shape[1]):
            for t in range(window.shape[0]):
                seen = window[max(0, t - trailing + 1) : t + 1, c]
                std = seen.std()
                if std >= 1e-12:
                    expected[t, c] = (window[t, c] - seen.mean()) / std
        assert np.allclose(result, expected, atol=ATOL)

    def test_batch_kernel_matches_per_channel_loop(self):
        windows = RNG.normal(size=(5, 16, 2))
        result = causal_znormalize_batch(windows)
        for row in range(windows.shape[0]):
            assert np.allclose(result[row], _naive_causal_znorm(windows[row]), atol=ATOL)


CLASSIFIERS = [
    lambda: ECTSClassifier(min_support=0.0, min_length=4, checkpoint_step=2),
    lambda: EDSCClassifier(position_step=6, max_candidates_per_class=40),
    lambda: TEASERClassifier(n_checkpoints=5),
    lambda: ProbabilityThresholdClassifier(threshold=0.7, min_length=4, checkpoint_step=2),
]


@pytest.mark.parametrize("method", ["che", "kde"])
def test_edsc_batched_walk_matches_per_row_d3(method):
    """EDSC's first-match lengths batch (n, L, 3) rows like one prefix at a time."""
    dataset = make_multichannel_cbf_dataset(n_per_class=8, length=48, n_channels=3)
    train = dataset.subset(range(0, dataset.series.shape[0], 2))
    test = dataset.subset(range(1, dataset.series.shape[0], 2))
    model = EDSCClassifier(
        threshold_method=method, position_step=6, max_candidates_per_class=40
    ).fit(train.series, train.labels)
    batched = model.predict_early_batch(test.series)
    assert any(outcome.triggered for outcome in batched)
    for got, row in zip(batched, test.series):
        want = model.predict_early(row)
        assert (got.label, got.trigger_length, got.triggered, got.confidence) == (
            want.label,
            want.trigger_length,
            want.triggered,
            want.confidence,
        )


class TestTrailingSingletonBitEquality:
    """(n, L, 1) must be indistinguishable from the legacy (n, L) layout."""

    @pytest.mark.parametrize("make", CLASSIFIERS)
    @pytest.mark.parametrize("znorm", ["none", "window", "causal"])
    def test_classifier_decisions_bit_identical(self, make, znorm):
        rng = np.random.default_rng(5)
        series = rng.normal(size=(18, 24))
        labels = np.repeat([0, 1], 9)
        series[labels == 1, 6:18] += 1.5
        if znorm == "window":
            series = znormalize(series)
        elif znorm == "causal":
            series = causal_znormalize_batch(series)

        flat = make().fit(series, labels)
        cube = make().fit(series[:, :, None], labels)
        for row in series:
            a = flat.predict_early(row)
            b = cube.predict_early(row[:, None])
            assert (a.label, a.trigger_length, a.confidence) == (
                b.label,
                b.trigger_length,
                b.confidence,
            )
        batch_flat = flat.predict_early_batch(series)
        batch_cube = cube.predict_early_batch(series[:, :, None])
        for a, b in zip(batch_flat, batch_cube):
            assert (a.label, a.trigger_length, a.confidence) == (
                b.label,
                b.trigger_length,
                b.confidence,
            )

    def test_distances_bit_identical(self):
        queries = RNG.normal(size=(3, 10))
        train = RNG.normal(size=(5, 12))
        flat = batch_prefix_distances(queries, train, [2, 10])
        cube = batch_prefix_distances(queries[:, :, None], train[:, :, None], [2, 10])
        assert np.array_equal(flat, cube)


class TestShardBackCompat:
    def test_version_1_manifest_rejected(self, tmp_path):
        series = RNG.normal(size=(10, 8))
        labels = np.arange(10)
        write_shards((series, labels), tmp_path, shard_exemplars=4)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema_version"] == SHARD_SCHEMA_VERSION

        # A pre-multichannel version-1 header: no n_channels field at all.
        manifest["schema_version"] = 1
        del manifest["n_channels"]
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ValueError, match="unsupported shard schema 1"):
            ShardedDataset.open(tmp_path)

    def test_multichannel_roundtrip_records_channels(self, tmp_path):
        dataset = make_multichannel_cbf_dataset(n_per_class=4, length=40)
        sharded = write_shards(dataset, tmp_path / "mv", shard_exemplars=5)
        assert sharded.n_channels == dataset.n_channels
        manifest = json.loads((tmp_path / "mv" / "manifest.json").read_text())
        assert manifest["schema_version"] == 2
        assert manifest["n_channels"] == dataset.n_channels
        assert np.array_equal(np.asarray(sharded.series), dataset.series)

    def test_unknown_future_schema_rejected(self, tmp_path):
        series = RNG.normal(size=(4, 6))
        write_shards((series, np.arange(4)), tmp_path, shard_exemplars=4)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 99
        manifest_path.write_text(json.dumps(manifest) + "\n")
        with pytest.raises(ValueError, match="unsupported shard schema"):
            ShardedDataset.open(tmp_path)
