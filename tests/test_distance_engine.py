"""Equivalence and behaviour tests for the incremental prefix-distance engine.

The engine's whole value proposition is that it is *numerically the same
computation* as the naive per-prefix recomputation, just with the redundant
work removed -- so these tests pin the results to the naive
:func:`repro.distance.euclidean.euclidean_distance` to within 1e-10.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.random_walk import smoothed_random_walk
from repro.distance.engine import (
    PrefixDistanceEngine,
    batch_prefix_distances,
    iter_prefix_distances,
    pairwise_prefix_distances,
)
from repro.distance.euclidean import euclidean_distance, pairwise_euclidean
from repro.distance.znorm import znormalize
from repro.memory import memory_budget

TOLERANCE = 1e-10


def _random_walk_batch(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    return np.vstack(
        [smoothed_random_walk(length, smoothing=4, seed=rng) for _ in range(n)]
    )


@pytest.fixture(scope="module")
def walks():
    rng = np.random.default_rng(7)
    train = _random_walk_batch(rng, 9, 60)
    queries = _random_walk_batch(rng, 5, 60)
    return queries, train


def _naive_prefix_distances(queries, train, lengths):
    out = np.empty((len(lengths), queries.shape[0], train.shape[0]))
    for k, length in enumerate(lengths):
        for i, q in enumerate(queries):
            for j, t in enumerate(train):
                out[k, i, j] = euclidean_distance(q[:length], t[:length])
    return out


class TestPrefixDistanceEngine:
    def test_matches_naive_on_random_walks(self, walks):
        queries, train = walks
        lengths = [1, 2, 7, 23, 59, 60]
        batched = pairwise_prefix_distances(queries, train, lengths)
        naive = _naive_prefix_distances(queries, train, lengths)
        assert batched.shape == naive.shape
        np.testing.assert_allclose(batched, naive, atol=TOLERANCE, rtol=0)

    def test_matches_naive_on_gunpoint_like_data(self):
        train_ds, test_ds = make_gunpoint_dataset(
            n_train_per_class=5, n_test_per_class=3, seed=11
        )
        lengths = list(range(1, train_ds.series_length + 1, 13)) + [train_ds.series_length]
        lengths = sorted(set(lengths))
        batched = pairwise_prefix_distances(test_ds.series, train_ds.series, lengths)
        naive = _naive_prefix_distances(test_ds.series, train_ds.series, lengths)
        np.testing.assert_allclose(batched, naive, atol=TOLERANCE, rtol=0)

    def test_znormalized_variant_matches_naive(self, walks):
        """Z-normalised series are the paper's canonical input; same guarantee."""
        queries, train = walks
        zq, zt = znormalize(queries), znormalize(train)
        lengths = [1, 5, 30, 60]
        batched = pairwise_prefix_distances(zq, zt, lengths)
        naive = _naive_prefix_distances(zq, zt, lengths)
        np.testing.assert_allclose(batched, naive, atol=TOLERANCE, rtol=0)

    def test_prefix_length_one_and_full_length_edges(self, walks):
        queries, train = walks
        full = train.shape[1]
        batched = pairwise_prefix_distances(queries, train, [1, full])
        np.testing.assert_allclose(
            batched[0],
            np.abs(queries[:, :1] - train[:, 0][None, :]),
            atol=TOLERANCE,
            rtol=0,
        )
        np.testing.assert_allclose(
            batched[1], pairwise_euclidean(queries, train), atol=1e-8, rtol=0
        )

    def test_every_length_incrementally(self, walks):
        """advance_to one sample at a time equals the naive slice recompute."""
        queries, train = walks
        engine = PrefixDistanceEngine(train).start(queries)
        for length in range(1, train.shape[1] + 1):
            got = np.sqrt(engine.advance_to(length))
            want = _naive_prefix_distances(queries, train, [length])[0]
            np.testing.assert_allclose(got, want, atol=TOLERANCE, rtol=0)

    def test_advance_to_returns_the_running_squared_sums(self, walks):
        queries, train = walks
        engine = PrefixDistanceEngine(train).start(queries)
        first = engine.advance_to(17)
        expected = pairwise_prefix_distances(queries, train, [17], squared=True)[0]
        np.testing.assert_array_equal(first, expected)
        # The return value is the engine's running state, advanced in place.
        assert engine.advance_to(30) is first

    def test_single_series_query(self, walks):
        queries, train = walks
        engine = PrefixDistanceEngine(train).start(queries[0])
        sq = engine.advance_to(10)
        assert sq.shape == (1, train.shape[0])

    def test_prefixes_only_grow(self, walks):
        queries, train = walks
        engine = PrefixDistanceEngine(train).start(queries)
        engine.advance_to(10)
        with pytest.raises(ValueError):
            engine.advance_to(5)

    def test_requires_start(self, walks):
        _, train = walks
        engine = PrefixDistanceEngine(train)
        with pytest.raises(RuntimeError):
            engine.advance_to(3)
        with pytest.raises(RuntimeError):
            engine.query_length

    def test_rejects_overlong_queries(self, walks):
        queries, train = walks
        engine = PrefixDistanceEngine(train[:, :30])
        with pytest.raises(ValueError):
            engine.start(queries)

    def test_rejects_bad_train(self):
        with pytest.raises(ValueError):
            PrefixDistanceEngine(np.ones(5))
        with pytest.raises(ValueError):
            PrefixDistanceEngine(np.ones((0, 3)))


class TestIterAndBatchedHelpers:
    def test_iter_yields_requested_lengths_in_order(self, walks):
        queries, train = walks
        lengths = [3, 9, 27]
        seen = [length for length, _ in iter_prefix_distances(queries, train, lengths)]
        assert seen == lengths

    def test_iter_rejects_non_increasing_lengths(self, walks):
        queries, train = walks
        with pytest.raises(ValueError):
            list(iter_prefix_distances(queries, train, [5, 5]))
        with pytest.raises(ValueError):
            list(iter_prefix_distances(queries, train, [9, 3]))
        with pytest.raises(ValueError):
            list(iter_prefix_distances(queries, train, []))

    def test_iter_matrices_are_independent_copies(self, walks):
        queries, train = walks
        first, second = list(iter_prefix_distances(queries, train, [4, 8]))
        first[1][:] = -1.0
        assert np.all(second[1] >= 0.0)

    def test_squared_flag(self, walks):
        queries, train = walks
        plain = pairwise_prefix_distances(queries, train, [12])
        squared = pairwise_prefix_distances(queries, train, [12], squared=True)
        np.testing.assert_allclose(plain**2, squared, atol=TOLERANCE)


class TestBatchPrefixDistances:
    """The one-shot kernel under the batched prediction paths."""

    def test_matches_naive_recomputation(self, walks):
        queries, train = walks
        lengths = [1, 2, 7, 33, 60]
        batched = batch_prefix_distances(queries, train, lengths)
        np.testing.assert_allclose(
            batched, _naive_prefix_distances(queries, train, lengths), atol=TOLERANCE
        )

    def test_matches_naive_on_znormalized_data(self, walks):
        queries, train = walks
        queries, train = znormalize(queries), znormalize(train)
        lengths = [2, 15, 60]
        batched = batch_prefix_distances(queries, train, lengths)
        np.testing.assert_allclose(
            batched, _naive_prefix_distances(queries, train, lengths), atol=TOLERANCE
        )

    def test_matches_incremental_engine_exactly(self, walks):
        """Same term sequence as the per-sample sweep: bit-identical sums."""
        queries, train = walks
        lengths = list(range(1, 61))
        batched = batch_prefix_distances(queries, train, lengths, squared=True)
        sweep = PrefixDistanceEngine(train).open(queries)
        for k, length in enumerate(lengths):
            assert np.array_equal(sweep.advance_to(length), batched[k])

    def test_chunking_is_invisible(self, walks):
        queries, train = walks
        lengths = [5, 40]
        whole = batch_prefix_distances(queries, train, lengths)
        # A budget this small forces one-query chunks.
        with memory_budget(train.shape[0] * 60 * 8):
            chunked = batch_prefix_distances(queries, train, lengths)
        assert np.array_equal(whole, chunked)

    def test_squared_flag(self, walks):
        queries, train = walks
        plain = batch_prefix_distances(queries, train, [12])
        squared = batch_prefix_distances(queries, train, [12], squared=True)
        np.testing.assert_allclose(plain**2, squared, atol=TOLERANCE)

    def test_single_query_promotion(self, walks):
        queries, train = walks
        batched = batch_prefix_distances(queries[0], train, [10])
        assert batched.shape == (1, 1, train.shape[0])
        np.testing.assert_allclose(
            batched[0, 0],
            [euclidean_distance(queries[0][:10], t[:10]) for t in train],
            atol=TOLERANCE,
        )

    def test_validation(self, walks):
        queries, train = walks
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [])
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [9, 3])
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [0])
        with pytest.raises(ValueError):
            batch_prefix_distances(queries, train, [61])
        with pytest.raises(ValueError):
            batch_prefix_distances(np.empty((2, 0)), train, [1])


def _dense_sum(queries, train, length):
    """Squared prefix distances as one dense broadcast and a plain sum."""
    q, t = queries[:, :length], train[:, :length]
    return ((q[:, None, :] - t[None, :, :]) ** 2).sum(axis=2)


class TestOneLengthRequest:
    """A one-length request sums each pair's squared differences directly."""

    @pytest.mark.parametrize("length", [1, 33, 60])
    def test_is_the_dense_sum_bit_for_bit(self, walks, length):
        queries, train = walks
        got = batch_prefix_distances(queries, train, [length], squared=True)
        assert np.array_equal(got[0], _dense_sum(queries, train, length))

    def test_one_query_chunks_are_the_dense_sum_bit_for_bit(self, walks):
        queries, train = walks
        with memory_budget(train.shape[0] * 60 * 8):  # one query per chunk
            got = batch_prefix_distances(queries, train, [60], squared=True)
        assert np.array_equal(got[0], _dense_sum(queries, train, 60))

    def test_multichannel_is_the_dense_sum_of_the_time_major_flattening(self):
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(4, 30, 3))
        train = rng.normal(size=(6, 30, 3))
        got = batch_prefix_distances(queries, train, [20], squared=True)
        flat_queries, flat_train = queries.reshape(4, -1), train.reshape(6, -1)
        assert np.array_equal(got[0], _dense_sum(flat_queries, flat_train, 20 * 3))


class TestRewiredCallers:
    """The hot paths rewired onto the engine must agree with the naive paths."""

    def test_knn_predict_prefixes_matches_truncated_predict(self):
        train_ds, test_ds = make_gunpoint_dataset(
            n_train_per_class=6, n_test_per_class=4, seed=2
        )
        from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

        model = KNeighborsTimeSeriesClassifier().fit(train_ds.series, train_ds.labels)
        lengths = [5, 40, 90, train_ds.series_length]
        batched = model.predict_prefixes(test_ds.series, lengths)
        for k, length in enumerate(lengths):
            naive = (
                KNeighborsTimeSeriesClassifier()
                .fit(train_ds.series[:, :length], train_ds.labels)
                .predict(test_ds.series[:, :length])
            )
            assert list(batched[k]) == list(naive)

    def test_prefix_accuracy_curve_fast_path_matches_naive(self):
        from repro.evaluation.runner import prefix_accuracy_curve

        train_ds, test_ds = make_gunpoint_dataset(
            n_train_per_class=6, n_test_per_class=4, seed=4
        )
        lengths = [10, 50, 100, train_ds.series_length]
        fast = prefix_accuracy_curve(train_ds, test_ds, lengths, renormalize=False)
        naive = {}
        from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

        for length in lengths:
            tr = train_ds.truncated(length)
            te = test_ds.truncated(length)
            model = KNeighborsTimeSeriesClassifier().fit(tr.series, tr.labels)
            naive[length] = model.score(te.series, te.labels)
        assert fast == pytest.approx(naive)


# ---------------------------------------------------------------------------
# The kernel contract: every prefix-distance entry point, on every input
# layout the engine accepts, against the naive per-pair recomputation.
# ---------------------------------------------------------------------------


def _stacked_iter(queries, train, lengths, squared=False):
    """:func:`iter_prefix_distances` stacked into one (n_lengths, n_q, n_train) array."""
    return np.stack(
        [m for _, m in iter_prefix_distances(queries, train, lengths, squared=squared)]
    )


def _stacked_sweep(queries, train, lengths, squared=False):
    """One :meth:`PrefixDistanceEngine.open` sweep read at every length."""
    sweep = PrefixDistanceEngine(train).open(queries)
    stacked = np.stack([sweep.advance_to(length).copy() for length in lengths])
    return stacked if squared else np.sqrt(stacked)


KERNELS = {
    "batch": batch_prefix_distances,
    "pairwise": pairwise_prefix_distances,
    "iter": _stacked_iter,
    "sweep": _stacked_sweep,
}

#: name -> (n_queries, query_length, n_train, train_length, n_channels, lengths).
#: The block cases cross the sweep's 64-sample accumulation block, in time
#: steps (univariate) or in flat samples (5 channels x 40 steps).
SPECS = {
    "equal_lengths": (5, 40, 7, 40, 1, [1, 2, 17, 39, 40]),
    "query_shorter_than_train": (4, 25, 6, 40, 1, [1, 12, 25]),
    "single_training_row": (3, 30, 1, 30, 1, [1, 15, 30]),
    "single_sample_series": (3, 1, 4, 1, 1, [1]),
    "crosses_block_boundaries": (3, 150, 4, 150, 1, [1, 63, 64, 65, 128, 129, 150]),
    "two_channels": (4, 20, 5, 24, 2, [1, 7, 20]),
    "three_channels": (3, 18, 6, 18, 3, [1, 2, 18]),
    "five_channels_crosses_blocks": (2, 40, 3, 40, 5, [1, 12, 13, 26, 40]),
}
UNIVARIATE_SPECS = sorted(name for name, spec in SPECS.items() if spec[4] == 1)
MULTICHANNEL_SPECS = sorted(name for name, spec in SPECS.items() if spec[4] > 1)


def _spec_data(name):
    """Fresh ``(queries, train, lengths)`` for a spec, from the spec's own seed."""
    n_q, q_len, n_train, train_len, channels, lengths = SPECS[name]
    rng = np.random.default_rng(list(SPECS).index(name))
    tail = () if channels == 1 else (channels,)
    queries = rng.normal(size=(n_q, q_len) + tail)
    train = rng.normal(size=(n_train, train_len) + tail)
    return queries, train, list(lengths)


class TestKernelOracleGrid:
    @pytest.mark.parametrize("squared", [False, True])
    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_matches_naive_recomputation(self, kernel, spec, squared):
        queries, train, lengths = _spec_data(spec)
        got = KERNELS[kernel](queries, train, lengths, squared=squared)
        naive = _naive_prefix_distances(queries, train, lengths)
        assert got.shape == (len(lengths), queries.shape[0], train.shape[0])
        assert got.dtype == np.float64
        want = naive**2 if squared else naive
        np.testing.assert_allclose(got, want, atol=TOLERANCE, rtol=0)

    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_single_step_sweep_matches_batch_kernel(self, spec):
        queries, train, _ = _spec_data(spec)
        lengths = list(range(1, queries.shape[1] + 1))
        batched = batch_prefix_distances(queries, train, lengths, squared=True)
        swept = _stacked_sweep(queries, train, lengths, squared=True)
        np.testing.assert_allclose(swept, batched, atol=TOLERANCE, rtol=0)

    @pytest.mark.parametrize("spec", UNIVARIATE_SPECS)
    def test_univariate_single_step_sweep_is_bit_identical(self, spec):
        """One new sample per step adds the cumulative sum's terms in its order."""
        queries, train, _ = _spec_data(spec)
        lengths = list(range(1, queries.shape[1] + 1))
        batched = batch_prefix_distances(queries, train, lengths, squared=True)
        assert np.array_equal(_stacked_sweep(queries, train, lengths, squared=True), batched)

    @pytest.mark.parametrize("spec", ["crosses_block_boundaries", "five_channels_crosses_blocks"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_squared_distances_never_decrease_with_length(self, kernel, spec):
        """Prefix sums of non-negative terms: monotone exactly, not just to round-off."""
        queries, train, _ = _spec_data(spec)
        lengths = list(range(1, queries.shape[1] + 1))
        got = KERNELS[kernel](queries, train, lengths, squared=True)
        assert np.all(got[0] >= 0.0)
        assert np.all(np.diff(got, axis=0) >= 0.0)


class TestKernelInputContract:
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int32, np.int64])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_inputs_are_computed_in_float64(self, kernel, dtype):
        queries, train, lengths = _spec_data("query_shorter_than_train")
        scale = 10.0 if np.issubdtype(dtype, np.integer) else 1.0
        queries, train = ((scale * a).astype(dtype) for a in (queries, train))
        got = KERNELS[kernel](queries, train, lengths)
        want = KERNELS[kernel](queries.astype(np.float64), train.astype(np.float64), lengths)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("side", ["queries", "train", "both"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_trailing_singleton_channel_is_univariate(self, kernel, side):
        queries, train, lengths = _spec_data("query_shorter_than_train")
        flat = KERNELS[kernel](queries, train, lengths)
        if side in ("queries", "both"):
            queries = queries[:, :, None]
        if side in ("train", "both"):
            train = train[:, :, None]
        assert np.array_equal(KERNELS[kernel](queries, train, lengths), flat)

    @pytest.mark.parametrize("spec", ["single_sample_series", "equal_lengths", "three_channels"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_single_exemplar_is_a_batch_of_one(self, kernel, spec):
        """A 1-D univariate query or a 2-D (length, d) multichannel exemplar."""
        queries, train, lengths = _spec_data(spec)
        got = KERNELS[kernel](queries[1], train, lengths)
        assert got.shape == (len(lengths), 1, train.shape[0])
        assert np.array_equal(got, KERNELS[kernel](queries[1:2], train, lengths))

    @pytest.mark.parametrize("spec", MULTICHANNEL_SPECS)
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_multichannel_is_the_sum_of_its_channels(self, kernel, spec):
        queries, train, lengths = _spec_data(spec)
        got = KERNELS[kernel](queries, train, lengths, squared=True)
        per_channel = sum(
            KERNELS[kernel](queries[:, :, c], train[:, :, c], lengths, squared=True)
            for c in range(train.shape[2])
        )
        np.testing.assert_allclose(got, per_channel, atol=TOLERANCE, rtol=0)

    @pytest.mark.parametrize("side", ["queries", "train"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_row_permutations_permute_the_result(self, kernel, side):
        """Each (query, train) pair is computed independently of its neighbours."""
        queries, train, lengths = _spec_data("two_channels")
        got = KERNELS[kernel](queries, train, lengths)
        rows = {"queries": queries, "train": train}
        order = np.random.default_rng(3).permutation(rows[side].shape[0])
        rows[side] = rows[side][order]
        permuted = KERNELS[kernel](rows["queries"], rows["train"], lengths)
        axis = 1 if side == "queries" else 2
        assert np.array_equal(permuted, np.take(got, order, axis=axis))


_REJECTED_INPUTS = {
    "one_dimensional_train": (np.ones((2, 5)), np.ones(5), "train must be a 2-D"),
    "four_dimensional_train": (np.ones((2, 5)), np.ones((3, 5, 2, 1)), "train must be a 2-D"),
    "no_training_rows": (np.ones((2, 5)), np.ones((0, 5)), "at least one non-empty"),
    "zero_length_train": (np.ones((2, 5)), np.ones((3, 0)), "at least one non-empty"),
    "zero_channel_train": (np.ones((2, 5, 2)), np.ones((3, 5, 0)), "at least one non-empty"),
    "channels_on_univariate_train": (np.ones((2, 5, 2)), np.ones((3, 5)), "2 channels"),
    "univariate_batch_on_multichannel_train": (
        np.ones((2, 5)),
        np.ones((3, 5, 3)),
        "do not match the training channel count",
    ),
    "channel_count_mismatch": (np.ones((2, 5, 2)), np.ones((3, 5, 3)), r"\(n, length, 3\)"),
    "four_dimensional_queries": (np.ones((2, 5, 1, 1)), np.ones((3, 5)), "1-D series or a 2-D"),
    "query_longer_than_train": (np.ones((2, 6)), np.ones((3, 5)), "exceeds training length"),
    "empty_queries": (np.ones((2, 0)), np.ones((3, 5)), "at least one sample"),
}


class TestKernelRejections:
    @pytest.mark.parametrize("case", sorted(_REJECTED_INPUTS))
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_malformed_input_is_rejected(self, kernel, case):
        queries, train, match = _REJECTED_INPUTS[case]
        with pytest.raises(ValueError, match=match):
            KERNELS[kernel](queries, train, [1])

    @pytest.mark.parametrize(
        "lengths",
        [[], [0], [26], [5, 5], [9, 3]],
        ids=["empty", "zero", "beyond_query_length", "repeated", "decreasing"],
    )
    @pytest.mark.parametrize("kernel", ["batch", "iter", "pairwise"])
    def test_lengths_are_validated_against_the_query_length(self, kernel, lengths):
        queries, train, _ = _spec_data("query_shorter_than_train")
        assert queries.shape[1] < 26 <= train.shape[1]
        with pytest.raises(ValueError, match="length"):
            KERNELS[kernel](queries, train, lengths)


class TestBatchKernelChunkBoundaries:
    """Chunk sizes around the query count leave the stacked result bit-identical."""

    N_QUERIES = 7

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("chunk", [0, 1, 2, 3, 6, 7, 8])
    def test_chunk_size_is_invisible(self, chunk, channels):
        rng = np.random.default_rng(chunk + 10 * channels)
        tail = () if channels == 1 else (channels,)
        queries = rng.normal(size=(self.N_QUERIES, 30) + tail)
        train = rng.normal(size=(5, 30) + tail)
        lengths = [1, 10, 30]
        # The kernel's chunk is budget // (n_train * flat length * 8) rows;
        # chunk 0 asks for less than one row, which still makes progress.
        # The chunked call goes first, so no earlier identical result can be
        # left in the memory its output is allocated from.
        row_bytes = train.shape[0] * lengths[-1] * channels * 8
        with memory_budget(max(8, chunk * row_bytes)):
            chunked = batch_prefix_distances(queries, train, lengths)
        assert np.array_equal(chunked, batch_prefix_distances(queries, train, lengths))
