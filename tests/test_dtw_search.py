"""Unit tests for DTW k-NN search (repro.distance.dtw_search).

The load-bearing property: the LB_Kim -> LB_Keogh -> early-abandoning-DP
cascade returns neighbour indices *and distances* bit-identical to the dense
oracle (every pair through the wavefront, then a stable per-row selection),
across band specs, unequal lengths, exact ties and ``k``.
"""

import inspect

import numpy as np
import pytest

from repro.distance import dtw_search
from repro.distance.dtw import (
    EnvelopeCache,
    _resolve_band,
    dtw_band_envelopes,
    dtw_distance,
    lb_keogh,
    lb_kim,
)
from repro.distance.dtw_search import DTWSearchStats, dtw_nearest_neighbors
from repro.distance.engine import batch_prefix_distances, dtw_pairwise_distances
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.memory import memory_budget

from oracles.dtw import dense_dtw_nearest_neighbors


def assert_matches_oracle(queries, train, envelope_cache=None, **kwargs):
    """Search and dense oracle agree bit for bit; return the search result."""
    idx, dist = dtw_nearest_neighbors(
        queries, train, envelope_cache=envelope_cache, **kwargs
    )
    oracle_idx, oracle_dist = dense_dtw_nearest_neighbors(queries, train, **kwargs)
    np.testing.assert_array_equal(idx, oracle_idx)
    np.testing.assert_array_equal(dist, oracle_dist)
    return idx, dist


@pytest.fixture
def random_walks():
    rng = np.random.default_rng(42)
    queries = rng.standard_normal((9, 40)).cumsum(axis=1)
    train = rng.standard_normal((13, 40)).cumsum(axis=1)
    return queries, train


@pytest.fixture
def unequal_walks():
    rng = np.random.default_rng(43)
    queries = rng.standard_normal((7, 50)).cumsum(axis=1)
    train = rng.standard_normal((11, 64)).cumsum(axis=1)
    return queries, train


class TestEnvelopesAndBounds:
    def _naive_envelopes(self, train, band, n):
        m = train.shape[1]
        lower = np.empty((train.shape[0], n))
        upper = np.empty((train.shape[0], n))
        for i in range(n):
            lo = max(0, i - band)
            hi = min(m - 1, i + band)
            lower[:, i] = train[:, lo : hi + 1].min(axis=1)
            upper[:, i] = train[:, lo : hi + 1].max(axis=1)
        return lower, upper

    @pytest.mark.parametrize("band", [1, 4, 15, 200])
    def test_envelopes_match_naive_loop(self, random_walks, band):
        _, train = random_walks
        lower, upper = dtw_band_envelopes(train, band)
        nl, nu = self._naive_envelopes(train, band, train.shape[1])
        np.testing.assert_array_equal(lower, nl)
        np.testing.assert_array_equal(upper, nu)

    def test_envelopes_match_naive_loop_unequal_lengths(self, unequal_walks):
        queries, train = unequal_walks
        n = queries.shape[1]
        band = _resolve_band(n, train.shape[1], 0.3)
        lower, upper = dtw_band_envelopes(train, band, query_length=n)
        nl, nu = self._naive_envelopes(train, band, n)
        np.testing.assert_array_equal(lower, nl)
        np.testing.assert_array_equal(upper, nu)

    def test_envelope_band_must_cover_length_difference(self, unequal_walks):
        queries, train = unequal_walks
        with pytest.raises(ValueError, match="length difference"):
            dtw_band_envelopes(train, 3, query_length=queries.shape[1])

    @pytest.mark.parametrize("window", [None, 5, 0.1])
    def test_bounds_never_exceed_true_squared_dtw(self, random_walks, window):
        queries, train = random_walks
        band = _resolve_band(queries.shape[1], train.shape[1], window)
        lower, upper = dtw_band_envelopes(train, band)
        kim = lb_kim(queries, train)
        keogh = lb_keogh(queries, lower, upper)
        for qi in range(queries.shape[0]):
            for ti in range(train.shape[0]):
                true_sq = dtw_distance(queries[qi], train[ti], window=window) ** 2
                assert kim[qi, ti] <= true_sq + 1e-9
                assert keogh[qi, ti] <= true_sq + 1e-9

    def test_bounds_admissible_unequal_lengths(self, unequal_walks):
        queries, train = unequal_walks
        window = 0.3
        band = _resolve_band(queries.shape[1], train.shape[1], window)
        lower, upper = dtw_band_envelopes(train, band, query_length=queries.shape[1])
        keogh = lb_keogh(queries, lower, upper)
        kim = lb_kim(queries, train)
        for qi in range(queries.shape[0]):
            for ti in range(train.shape[0]):
                true_sq = dtw_distance(queries[qi], train[ti], window=window) ** 2
                assert max(kim[qi, ti], keogh[qi, ti]) <= true_sq + 1e-9

    def test_lb_keogh_zero_for_series_inside_envelope(self, random_walks):
        _, train = random_walks
        lower, upper = dtw_band_envelopes(train, 5)
        self_bound = lb_keogh(train, lower, upper)
        assert np.all(np.diagonal(self_bound) == 0.0)

    def test_lb_keogh_rejects_mismatched_envelopes(self, random_walks):
        queries, train = random_walks
        lower, upper = dtw_band_envelopes(train, 25, query_length=17)
        with pytest.raises(ValueError):
            lb_keogh(queries, lower, upper)


class TestOracleEquivalence:
    """Cascade search vs dense oracle: bit-identical across the spec grid."""

    @pytest.mark.parametrize("window", [None, 5, 0.1, 0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_equal_length_bitwise_identical(self, random_walks, window, k):
        queries, train = random_walks
        assert_matches_oracle(queries, train, window=window, n_neighbors=k)

    @pytest.mark.parametrize("window", [None, 20, 0.3])
    @pytest.mark.parametrize("k", [1, 3])
    def test_unequal_length_bitwise_identical(self, unequal_walks, window, k):
        queries, train = unequal_walks
        assert_matches_oracle(queries, train, window=window, n_neighbors=k)

    def test_exact_ties_resolve_to_lowest_index(self, random_walks):
        queries, train = random_walks
        train = train.copy()
        train[7] = train[2]  # exact duplicate at a higher index
        queries = queries.copy()
        queries[0] = train[2]  # and an exact query match
        for k in (1, 3):
            idx, dist = assert_matches_oracle(queries, train, window=0.2, n_neighbors=k)
            assert idx[0, 0] == 2  # the duplicate's lowest training index
            assert dist[0, 0] == 0.0

    def test_tie_behind_a_tight_bound_is_computed(self):
        # Row 1 has the smaller LB_Kim, so it seeds the running best; row 0
        # ties it exactly, and at window 0 its bounds equal its distance.
        # Only the non-negative pruning slack and the index tie-break of the
        # running top-k keep row 0.
        queries = np.zeros((1, 4))
        train = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
        idx, dist = assert_matches_oracle(queries, train, window=0)
        assert idx[0, 0] == 0
        assert dist[0, 0] == np.sqrt(2.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_query_longer_than_train_bitwise_identical(self, unequal_walks, k):
        train, queries = unequal_walks  # queries now the longer series
        assert_matches_oracle(queries, train, window=0.3, n_neighbors=k)

    @pytest.mark.parametrize("window", [None, 0.1])
    @pytest.mark.parametrize("length", [1, 2, 12, 25])
    def test_query_prefixes_bitwise_identical(self, window, length):
        # A query prefix of any length against full-length training series,
        # down to one sample that the path aligns with every training sample.
        rng = np.random.default_rng(3)
        train = rng.standard_normal((6, 25)).cumsum(axis=1)
        query = rng.standard_normal(25).cumsum()
        for k in (1, train.shape[0]):
            assert_matches_oracle(query[:length], train, window=window, n_neighbors=k)

    def test_multichannel_unequal_lengths_bitwise_identical(self):
        rng = np.random.default_rng(47)
        queries = rng.standard_normal((4, 25, 2)).cumsum(axis=1)
        train = rng.standard_normal((6, 33, 2)).cumsum(axis=1)
        assert_matches_oracle(queries, train, window=0.3, n_neighbors=2)

    def test_three_sample_series(self):
        queries = np.array([[0.0, 1.0, 2.0]])
        train = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        idx, dist = assert_matches_oracle(queries, train, window=1)
        assert idx[0, 0] == 1
        assert dist[0, 0] == 0.0

    def test_single_training_row(self, random_walks):
        queries, train = random_walks
        idx, _ = assert_matches_oracle(queries, train[:1], window=0.1)
        np.testing.assert_array_equal(idx, np.zeros((queries.shape[0], 1), dtype=int))

    def test_zero_window_is_lockstep_euclidean(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(queries, train, window=0)
        euclidean = np.sqrt(
            ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        )
        np.testing.assert_array_equal(idx[:, 0], euclidean.argmin(axis=1))
        np.testing.assert_allclose(dist[:, 0], euclidean.min(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_identical_training_rows_rank_by_index(self, random_walks, k):
        queries, train = random_walks
        train = np.repeat(train[:1], 6, axis=0)
        idx, dist = assert_matches_oracle(queries, train, window=0.1, n_neighbors=k)
        expected = np.tile(np.arange(k), (queries.shape[0], 1))
        np.testing.assert_array_equal(idx, expected)
        assert np.all(dist == dist[:, :1])  # every tied neighbour at one distance

    def test_matches_scalar_dtw_distance(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(queries, train, window=0.1)
        for qi in range(queries.shape[0]):
            scalar = dtw_distance(queries[qi], train[idx[qi, 0]], window=0.1)
            assert dist[qi, 0] == scalar

    def test_single_1d_query_promoted(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(queries[0], train, window=5)
        assert idx.shape == (1, 1) and dist.shape == (1, 1)

    def test_selection_matches_dense_matrix(self, random_walks):
        queries, train = random_walks
        dense = dtw_pairwise_distances(queries, train, window=0.1)
        idx, dist = dtw_nearest_neighbors(queries, train, window=0.1, n_neighbors=2)
        order = np.argsort(dense, axis=1, kind="stable")[:, :2]
        np.testing.assert_array_equal(idx, order)
        np.testing.assert_array_equal(dist, np.take_along_axis(dense, order, axis=1))

    def test_invalid_arguments_rejected(self, random_walks):
        queries, train = random_walks
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, n_neighbors=0)
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, n_neighbors=train.shape[0] + 1)
        with pytest.raises(ValueError, match="at least one sample"):
            dtw_nearest_neighbors(np.empty((2, 0)), train)


_CONTRACT_RNG = np.random.default_rng(49)


class TestInputContract:
    """The search takes the input contract of ``dtw_pairwise_distances``."""

    @pytest.mark.parametrize(
        "queries, train, n_rows",
        [
            pytest.param(
                _CONTRACT_RNG.normal(size=(20, 3)),
                _CONTRACT_RNG.normal(size=(5, 20, 3)),
                1,
                id="multichannel_exemplar",
            ),
            pytest.param(
                np.empty((0, 20)), _CONTRACT_RNG.normal(size=(5, 20)), 0, id="empty_batch"
            ),
            pytest.param(
                _CONTRACT_RNG.normal(size=(2, 20)),
                _CONTRACT_RNG.normal(size=20),
                None,
                id="one_dimensional_train",
            ),
        ],
    )
    def test_inputs_follow_the_dense_contract(self, queries, train, n_rows):
        if n_rows is None:
            for search in (dtw_nearest_neighbors, dense_dtw_nearest_neighbors):
                with pytest.raises(ValueError, match="train must be a 2-D"):
                    search(queries, train, window=0.2)
            return
        for k in (1, 3):
            idx, dist = assert_matches_oracle(queries, train, window=0.2, n_neighbors=k)
            assert idx.shape == dist.shape == (n_rows, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
    def test_input_dtypes_are_searched_in_float64(self, random_walks, dtype):
        queries, train = random_walks
        scale = 10.0 if np.issubdtype(dtype, np.integer) else 1.0
        queries, train = ((scale * a).astype(dtype) for a in (queries, train))
        idx, dist = assert_matches_oracle(queries, train, window=0.1, n_neighbors=3)
        assert dist.dtype == np.float64
        cast_idx, cast_dist = dtw_nearest_neighbors(
            queries.astype(np.float64), train.astype(np.float64), window=0.1, n_neighbors=3
        )
        np.testing.assert_array_equal(idx, cast_idx)
        np.testing.assert_array_equal(dist, cast_dist)

    @pytest.mark.parametrize("side", ["queries", "train", "both"])
    def test_trailing_singleton_channel_is_univariate(self, random_walks, side):
        queries, train = random_walks
        flat_idx, flat_dist = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=2
        )
        if side in ("queries", "both"):
            queries = queries[:, :, None]
        if side in ("train", "both"):
            train = train[:, :, None]
        idx, dist = assert_matches_oracle(queries, train, window=0.1, n_neighbors=2)
        np.testing.assert_array_equal(idx, flat_idx)
        np.testing.assert_array_equal(dist, flat_dist)


class TestSignature:
    """One search entry point, and no option that selects another path."""

    def test_search_parameters(self):
        assert list(inspect.signature(dtw_nearest_neighbors).parameters) == [
            "queries",
            "train",
            "window",
            "n_neighbors",
            "return_stats",
            "envelope_cache",
        ]

    def test_pairwise_parameters(self):
        assert list(inspect.signature(dtw_pairwise_distances).parameters) == [
            "queries",
            "train",
            "window",
        ]


class TestSearchStats:
    def test_counts_partition_the_pair_set(self, random_walks):
        queries, train = random_walks
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, return_stats=True
        )
        assert isinstance(stats, DTWSearchStats)
        assert stats.n_pairs == queries.shape[0] * train.shape[0]
        assert (
            stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.dp_computed
            == stats.n_pairs
        )
        assert 0.0 <= stats.pruning_rate < 1.0
        assert stats.dp_abandoned <= stats.dp_computed
        # The query-side LB_Keogh count is a sub-bucket of the Keogh bucket,
        # not a fourth partition member.
        assert 0 <= stats.lb_keogh_query_pruned <= stats.lb_keogh_pruned

    @pytest.mark.parametrize(
        "query_shape, train_shape, window",
        [
            ((9, 40), (13, 40), None),
            ((9, 40), (13, 40), 5),
            ((9, 40), (13, 40), 0),
            ((7, 50), (11, 64), 0.3),
            ((4, 25, 2), (6, 33, 2), 0.3),
        ],
        ids=["unbanded", "band_5", "lockstep", "unequal_lengths", "multichannel"],
    )
    def test_partition_holds_across_specs(self, query_shape, train_shape, window):
        rng = np.random.default_rng(51)
        queries = rng.standard_normal(query_shape).cumsum(axis=1)
        train = rng.standard_normal(train_shape).cumsum(axis=1)
        k = 2
        idx, dist, stats = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, return_stats=True
        )
        assert stats.n_pairs == query_shape[0] * train_shape[0]
        assert (
            stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.dp_computed
            == stats.n_pairs
        )
        # Every query runs its k seed candidates through the DP.
        assert stats.dp_computed >= query_shape[0] * k
        assert 0 <= stats.dp_abandoned <= stats.dp_computed
        assert 0 <= stats.lb_keogh_query_pruned <= stats.lb_keogh_pruned
        oracle_idx, oracle_dist = dense_dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k
        )
        np.testing.assert_array_equal(idx, oracle_idx)
        np.testing.assert_array_equal(dist, oracle_dist)

    @pytest.mark.parametrize("k", [1, 3])
    def test_stats_do_not_change_the_answer(self, random_walks, k):
        queries, train = random_walks
        plain_idx, plain_dist = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=k
        )
        idx, dist, _ = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=k, return_stats=True
        )
        np.testing.assert_array_equal(idx, plain_idx)
        np.testing.assert_array_equal(dist, plain_dist)

    def test_empty_batch_reports_no_pairs(self, random_walks):
        _, train = random_walks
        idx, dist, stats = dtw_nearest_neighbors(
            np.empty((0, 40)), train, window=0.1, n_neighbors=2, return_stats=True
        )
        assert idx.shape == dist.shape == (0, 2)
        assert stats.n_pairs == stats.dp_computed == 0
        assert stats.pruning_rate == 0.0


class TestKNNRidesTheSearch:
    def test_dtw_metric_predictions_match_oracle(self):
        rng = np.random.default_rng(44)
        train = rng.standard_normal((16, 30)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 8)
        test = train + 0.05 * rng.standard_normal(train.shape)
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 0.2}
        ).fit(train, labels)
        oracle_idx, _ = dense_dtw_nearest_neighbors(test, train, window=0.2)
        np.testing.assert_array_equal(model.predict(test), labels[oracle_idx[:, 0]])

    def test_dtw_metric_accepts_unequal_query_length(self):
        rng = np.random.default_rng(45)
        train = rng.standard_normal((10, 32)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 5)
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 10}
        ).fit(train, labels)
        short = rng.standard_normal((4, 26)).cumsum(axis=1)
        assert model.predict(short).shape == (4,)

    def test_dtw_metric_predict_proba_matches_predict(self):
        rng = np.random.default_rng(46)
        train = rng.standard_normal((12, 28)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 6)
        test = rng.standard_normal((5, 28)).cumsum(axis=1)
        model = KNeighborsTimeSeriesClassifier(
            n_neighbors=3, metric="dtw", metric_params={"window": 0.2}
        ).fit(train, labels)
        predicted = model.predict(test)
        probas = model.predict_proba(test)
        for label, proba in zip(predicted, probas):
            assert max(proba.items(), key=lambda item: item[1])[0] == label

    def test_unknown_metric_param_rejected(self):
        with pytest.raises(ValueError, match="metric_params"):
            KNeighborsTimeSeriesClassifier(metric="dtw", metric_params={"widow": 3})
        with pytest.raises(ValueError, match="metric_params"):
            KNeighborsTimeSeriesClassifier(metric="euclidean", metric_params={"window": 3})


class TestChunking:
    def test_return_without_stats_is_two_tuple(self, random_walks):
        queries, train = random_walks
        out = dtw_nearest_neighbors(queries, train, window=5)
        assert len(out) == 2

    def test_small_chunk_sizes_still_exact(self, random_walks, monkeypatch):
        queries, train = random_walks
        monkeypatch.setattr(dtw_search, "_DP_CHUNK_PAIRS", 3)
        assert_matches_oracle(queries, train, window=0.1, n_neighbors=3)

    def test_tiny_lb_block_budget_still_exact(self, random_walks):
        queries, train = random_walks
        oracle_idx, oracle_dist = dense_dtw_nearest_neighbors(queries, train, window=0.1)
        with memory_budget(1024):
            idx, dist = dtw_nearest_neighbors(queries, train, window=0.1)
        np.testing.assert_array_equal(idx, oracle_idx)
        np.testing.assert_array_equal(dist, oracle_dist)

    @pytest.mark.parametrize("chunk", [1, 2, 4, 27])
    def test_chunk_sizes_around_the_seed_count(self, random_walks, monkeypatch, chunk):
        # 9 queries x 3 seeds = 27 seed pairs: one pair per chunk, chunks
        # that leave a short last chunk, and exactly one seed chunk.
        queries, train = random_walks
        monkeypatch.setattr(dtw_search, "_DP_CHUNK_PAIRS", chunk)
        assert_matches_oracle(queries, train, window=0.1, n_neighbors=3)

    @pytest.mark.parametrize("budget", [8, 2048, 1 << 16])
    def test_lb_block_budgets_on_both_envelope_sides(self, unequal_walks, budget):
        # Train-side bounds gather query rows, query-side bounds gather
        # train rows of another length; both chunk against the budget, from
        # one row per block up to every pair in one block.
        queries, train = unequal_walks
        oracle_idx, oracle_dist = dense_dtw_nearest_neighbors(
            queries, train, window=0.3, n_neighbors=3
        )
        with memory_budget(budget):
            idx, dist = dtw_nearest_neighbors(queries, train, window=0.3, n_neighbors=3)
        np.testing.assert_array_equal(idx, oracle_idx)
        np.testing.assert_array_equal(dist, oracle_dist)


class TestDenseKernels:
    """The dense engine kernels every pair of a batch, against naive loops."""

    def test_batch_prefix_distances(self, random_walks):
        queries, train = random_walks
        lengths = [5, 17, 40]
        out = batch_prefix_distances(queries, train, lengths)
        for k, length in enumerate(lengths):
            diff = queries[:, None, :length] - train[None, :, :length]
            naive = np.sqrt((diff**2).sum(axis=2))
            np.testing.assert_allclose(out[k], naive, rtol=1e-12)

    def test_batch_prefix_distances_multichannel_squared(self):
        rng = np.random.default_rng(48)
        queries = rng.standard_normal((5, 30, 3)).cumsum(axis=1)
        train = rng.standard_normal((9, 30, 3)).cumsum(axis=1)
        lengths = [3, 30]
        out = batch_prefix_distances(queries, train, lengths, squared=True)
        for k, length in enumerate(lengths):
            diff = queries[:, None, :length] - train[None, :, :length]
            np.testing.assert_allclose(out[k], (diff**2).sum(axis=(2, 3)), rtol=1e-12)

    def test_dtw_pairwise_distances(self, unequal_walks):
        queries, train = unequal_walks
        queries, train = queries[:4], train[:5]
        out = dtw_pairwise_distances(queries, train, window=0.3)
        scalar = [
            [dtw_distance(q, t, window=0.3) for t in train] for q in queries
        ]
        np.testing.assert_array_equal(out, np.asarray(scalar))


class TestNonFiniteInput:
    """NaN/inf samples have no DTW rank: the search rejects them."""

    @pytest.fixture
    def batches(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(2, 20)), rng.normal(size=(5, 20))

    def test_nan_query_rejected(self, batches):
        queries, train = batches
        queries[0, 3] = np.nan
        with pytest.raises(ValueError, match="queries contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2)

    def test_inf_train_row_rejected_at_full_k(self, batches):
        queries, train = batches
        train[1] = np.inf
        with pytest.raises(ValueError, match="train contains non-finite values"):
            dtw_nearest_neighbors(
                queries, train, window=0.2, n_neighbors=train.shape[0]
            )

    def test_knn_dtw_predict_rejects_nan_query(self, batches):
        queries, train = batches
        queries[0, 3] = np.nan
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 0.2}
        ).fit(train, ["a", "b", "a", "b", "a"])
        with pytest.raises(ValueError, match="non-finite"):
            model.predict(queries)

    def test_knn_dtw_predict_proba_rejects_nan_query(self, batches):
        queries, train = batches
        queries[1, 0] = np.nan
        model = KNeighborsTimeSeriesClassifier(
            n_neighbors=3, metric="dtw", metric_params={"window": 0.2}
        ).fit(train, ["a", "b", "a", "b", "a"])
        with pytest.raises(ValueError, match="non-finite"):
            model.predict_proba(queries)

    def test_negative_inf_query_rejected(self, batches):
        queries, train = batches
        queries[1, -1] = -np.inf
        with pytest.raises(ValueError, match="queries contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2)

    def test_nan_train_sample_rejected_at_k1(self, batches):
        queries, train = batches
        train[4, 0] = np.nan
        with pytest.raises(ValueError, match="train contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2)

    def test_multichannel_nan_rejected(self):
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(2, 20, 3))
        train = rng.normal(size=(5, 20, 3))
        queries[1, 7, 2] = np.nan
        with pytest.raises(ValueError, match="queries contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2)


class TestQuerySideKeogh:
    def test_query_side_bound_is_admissible(self, unequal_walks):
        queries, train = unequal_walks
        m = train.shape[1]
        band = max(abs(queries.shape[1] - m), int(0.2 * m))
        lower_q, upper_q = dtw_band_envelopes(queries, band, query_length=m)
        # Mirror bound: train rows against *query* envelopes.
        bounds = lb_keogh(train, lower_q, upper_q)  # (n_train, n_queries)
        for qi in range(queries.shape[0]):
            for ti in range(train.shape[0]):
                exact = dtw_distance(queries[qi], train[ti], window=band)
                assert bounds[ti, qi] <= exact**2 + 1e-9

    def test_query_counter_is_subset_of_keogh_bucket(self, random_walks):
        queries, train = random_walks
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, return_stats=True
        )
        assert 0 <= stats.lb_keogh_query_pruned <= stats.lb_keogh_pruned
        assert (
            stats.lb_kim_pruned + stats.lb_keogh_pruned + stats.dp_computed
            == stats.n_pairs
        )


class TestEnvelopeCache:
    def test_hits_and_misses(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        for _ in range(3):
            dtw_nearest_neighbors(queries, train, window=0.1, envelope_cache=cache)
        assert cache.misses == 1
        assert cache.hits == 2
        assert len(cache) == 1

    def test_cached_search_is_bit_identical(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        first = dtw_nearest_neighbors(queries, train, window=0.1, envelope_cache=cache)
        second = dtw_nearest_neighbors(queries, train, window=0.1, envelope_cache=cache)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_content_fingerprint_invalidates_on_new_data(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        dtw_nearest_neighbors(queries, train, window=0.1, envelope_cache=cache)
        dtw_nearest_neighbors(queries, train + 1.0, window=0.1, envelope_cache=cache)
        assert cache.misses == 2
        assert cache.hits == 0

    def test_band_is_part_of_the_key(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        dtw_nearest_neighbors(queries, train, window=4, envelope_cache=cache)
        dtw_nearest_neighbors(queries, train, window=8, envelope_cache=cache)
        assert cache.misses == 2

    def test_lru_eviction(self):
        rng = np.random.default_rng(13)
        cache = EnvelopeCache(maxsize=2)
        arrays = [rng.standard_normal((4, 20)) for _ in range(3)]
        for arr in arrays:
            cache.envelopes(arr, band=3)
        assert len(cache) == 2
        # Oldest entry evicted: asking for it again is a miss.
        cache.envelopes(arrays[0], band=3)
        assert cache.misses == 4

    def test_clear_resets_counters(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        cache.envelopes(train, band=3)
        cache.envelopes(train, band=3)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    @pytest.mark.parametrize("window", [None, 5, 0.1, 0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_cold_and_warm_cache_match_oracle(self, random_walks, window, k):
        queries, train = random_walks
        cache = EnvelopeCache()
        for _ in range(2):
            assert_matches_oracle(
                queries, train, window=window, n_neighbors=k, envelope_cache=cache
            )
        assert (cache.misses, cache.hits) == (1, 1)

    @pytest.mark.parametrize("window", [None, 20, 0.3])
    def test_unequal_lengths_with_cache(self, unequal_walks, window):
        queries, train = unequal_walks
        cache = EnvelopeCache()
        for q, t in ((queries, train), (train, queries), (queries, train)):
            assert_matches_oracle(q, t, window=window, n_neighbors=3, envelope_cache=cache)
        assert (cache.misses, cache.hits) == (2, 1)

    def test_one_cache_across_query_lengths(self):
        # Envelopes depend on the query length they are held against, so a
        # shared cache must keep one entry per length and never cross them.
        rng = np.random.default_rng(50)
        train = rng.standard_normal((6, 25)).cumsum(axis=1)
        cache = EnvelopeCache()
        for length in (10, 25, 40, 25, 10):
            queries = rng.standard_normal((3, length)).cumsum(axis=1)
            assert_matches_oracle(
                queries, train, window=0.2, n_neighbors=2, envelope_cache=cache
            )
        assert (len(cache), cache.misses, cache.hits) == (3, 3, 2)

    def test_multichannel_with_cache(self):
        rng = np.random.default_rng(47)
        queries = rng.standard_normal((4, 25, 2)).cumsum(axis=1)
        train = rng.standard_normal((6, 33, 2)).cumsum(axis=1)
        cache = EnvelopeCache()
        for _ in range(2):
            assert_matches_oracle(
                queries, train, window=0.3, n_neighbors=2, envelope_cache=cache
            )
        assert (cache.misses, cache.hits) == (1, 1)

    @pytest.mark.parametrize("which", ["queries", "train"])
    def test_non_finite_input_never_reaches_the_cache(self, random_walks, which):
        queries, train = (a.copy() for a in random_walks)
        {"queries": queries, "train": train}[which][0, 0] = np.nan
        cache = EnvelopeCache()
        with pytest.raises(ValueError, match=f"{which} contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.1, envelope_cache=cache)
        assert len(cache) == cache.misses == 0

    def test_classifier_refit_gets_a_fresh_cache(self, random_walks):
        queries, train = random_walks
        labels = np.arange(train.shape[0]) % 2
        clf = KNeighborsTimeSeriesClassifier(metric="dtw", metric_params={"window": 0.1})
        clf.fit(train, labels)
        clf.predict(queries)
        first_cache = clf._envelope_cache
        assert first_cache is not None and first_cache.misses == 1
        clf.predict(queries)
        assert first_cache.hits >= 1
        clf.fit(train, labels)
        assert clf._envelope_cache is not first_cache
