"""Unit tests for the distance-backend layer (repro.distance.backends).

The load-bearing property: with float64 accumulation, the pruned
LB_Kim -> LB_Keogh -> early-abandoning-DP cascade returns neighbour indices
*and distances* bit-identical to the dense reference path, across band
specs, unequal lengths, exact ties and ``k``.
"""

import numpy as np
import pytest

from repro.distance.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    DTWSearchStats,
    active_backend,
    pruned_dtw_nearest_neighbors,
    set_backend,
    use_backend,
)
from repro.distance.dtw import (
    EnvelopeCache,
    _resolve_band,
    dtw_band_envelopes,
    dtw_distance,
    lb_keogh,
    lb_kim,
)
from repro.distance.engine import (
    PrefixDTWEngine,
    batch_prefix_distances,
    dtw_nearest_neighbors,
    dtw_pairwise_distances,
    ragged_prefix_distances,
)
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.memory import memory_budget


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Every test starts from the default backend with no env override."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_backend(None)
    yield
    set_backend(None)


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


class TestBackendSwitch:
    def test_default_is_reference(self):
        assert active_backend() == "reference"

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        assert active_backend() == "pruned"

    def test_env_value_is_normalised(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "  Pruned ")
        assert active_backend() == "pruned"

    def test_empty_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert active_backend() == "reference"

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        set_backend("reference")
        assert active_backend() == "reference"
        set_backend(None)
        assert active_backend() == "pruned"

    def test_use_backend_restores_previous_state(self):
        set_backend("reference")
        with use_backend("pruned") as name:
            assert name == "pruned"
            assert active_backend() == "pruned"
        assert active_backend() == "reference"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_backend("pruned"):
                raise RuntimeError("boom")
        assert active_backend() == "reference"

    def test_unknown_backend_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown distance backend"):
            set_backend("fast")
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="unknown distance backend"):
            active_backend()

    def test_explicit_backend_argument_wins(self, random_walks, monkeypatch):
        queries, train = random_walks
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="reference", return_stats=True
        )
        assert stats.pruning_rate == 0.0

    def test_registered_backends_are_reference_and_pruned(self):
        assert BACKENDS == ("reference", "pruned")

    @pytest.mark.parametrize("route", ["set_backend", "use_backend", "env", "argument"])
    def test_compiled_is_not_a_backend(self, random_walks, monkeypatch, route):
        # Every way of naming a backend rejects "compiled" loudly rather than
        # quietly running one of the registered searches in its place.
        queries, train = random_walks
        with pytest.raises(ValueError, match="unknown distance backend 'compiled'"):
            if route == "set_backend":
                set_backend("compiled")
            elif route == "use_backend":
                with use_backend("compiled"):
                    pass
            elif route == "env":
                monkeypatch.setenv(BACKEND_ENV_VAR, "compiled")
                dtw_nearest_neighbors(queries, train, window=0.1)
            else:
                dtw_nearest_neighbors(queries, train, window=0.1, backend="compiled")
        if route != "env":
            assert active_backend() == "reference"  # the failed request left no trace


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


class TestBackendEquivalence:
    """Pruned vs reference: bit-identical in float64, across the spec grid."""

    @pytest.mark.parametrize("window", [None, 5, 0.1, 0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_equal_length_bitwise_identical(self, random_walks, window, k):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="pruned"
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    @pytest.mark.parametrize("window", [None, 20, 0.3])
    @pytest.mark.parametrize("k", [1, 3])
    def test_unequal_length_bitwise_identical(self, unequal_walks, window, k):
        queries, train = unequal_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries, train, window=window, n_neighbors=k, backend="pruned"
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    def test_exact_ties_resolve_to_lowest_index(self, random_walks):
        queries, train = random_walks
        train = train.copy()
        train[7] = train[2]  # exact duplicate at a higher index
        queries = queries.copy()
        queries[0] = train[2]  # and an exact query match
        for k in (1, 3):
            pi, pd = dtw_nearest_neighbors(
                queries, train, window=0.2, n_neighbors=k, backend="pruned"
            )
            ri, rd = dtw_nearest_neighbors(
                queries, train, window=0.2, n_neighbors=k, backend="reference"
            )
            np.testing.assert_array_equal(ri, pi)
            np.testing.assert_array_equal(rd, pd)
            assert pi[0, 0] == 2  # the duplicate's lowest training index
            assert pd[0, 0] == 0.0

    @pytest.mark.parametrize("k", [1, 3])
    def test_query_longer_than_train_bitwise_identical(self, unequal_walks, k):
        train, queries = unequal_walks  # queries now the longer series
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.3, n_neighbors=k, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries, train, window=0.3, n_neighbors=k, backend="pruned"
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    def test_multichannel_unequal_lengths_bitwise_identical(self):
        rng = np.random.default_rng(47)
        queries = rng.standard_normal((4, 25, 2)).cumsum(axis=1)
        train = rng.standard_normal((6, 33, 2)).cumsum(axis=1)
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.3, n_neighbors=2, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries, train, window=0.3, n_neighbors=2, backend="pruned"
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_three_sample_series(self, backend):
        queries = np.array([[0.0, 1.0, 2.0]])
        train = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        idx, dist = dtw_nearest_neighbors(queries, train, window=1, backend=backend)
        assert idx[0, 0] == 1
        assert dist[0, 0] == 0.0

    def test_single_training_row(self, random_walks):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train[:1], window=0.1, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(queries, train[:1], window=0.1, backend="pruned")
        np.testing.assert_array_equal(pi, np.zeros((queries.shape[0], 1), dtype=int))
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    def test_zero_window_is_lockstep_euclidean(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(queries, train, window=0, backend="pruned")
        euclidean = np.sqrt(
            ((queries[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        )
        np.testing.assert_array_equal(idx[:, 0], euclidean.argmin(axis=1))
        np.testing.assert_allclose(dist[:, 0], euclidean.min(axis=1), rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_identical_training_rows_rank_by_index(self, random_walks, k):
        queries, train = random_walks
        train = np.repeat(train[:1], 6, axis=0)
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=k, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=k, backend="pruned"
        )
        expected = np.tile(np.arange(k), (queries.shape[0], 1))
        np.testing.assert_array_equal(pi, expected)
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)
        assert np.all(pd == pd[:, :1])  # every tied neighbour at one distance

    def test_matches_scalar_dtw_distance(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="pruned"
        )
        for qi in range(queries.shape[0]):
            scalar = dtw_distance(queries[qi], train[idx[qi, 0]], window=0.1)
            assert dist[qi, 0] == scalar

    def test_float32_mode_close_not_necessarily_identical(self, random_walks):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=3, backend="reference"
        )
        pi, pd = dtw_nearest_neighbors(
            queries,
            train,
            window=0.1,
            n_neighbors=3,
            backend="pruned",
            dtype=np.float32,
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_allclose(pd, rd, rtol=1e-5)

    def test_single_1d_query_promoted(self, random_walks):
        queries, train = random_walks
        idx, dist = dtw_nearest_neighbors(queries[0], train, window=5, backend="pruned")
        assert idx.shape == (1, 1) and dist.shape == (1, 1)

    def test_reference_selection_matches_dense_matrix(self, random_walks):
        queries, train = random_walks
        dense = dtw_pairwise_distances(queries, train, window=0.1)
        idx, dist = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=2, backend="reference"
        )
        order = np.argsort(dense, axis=1, kind="stable")[:, :2]
        np.testing.assert_array_equal(idx, order)
        np.testing.assert_array_equal(dist, np.take_along_axis(dense, order, axis=1))

    def test_invalid_arguments_rejected(self, random_walks):
        queries, train = random_walks
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, n_neighbors=0, backend="pruned")
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(
                queries, train, n_neighbors=train.shape[0] + 1, backend="pruned"
            )
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, backend="pruned", dtype=np.int32)
        with pytest.raises(ValueError):
            dtw_nearest_neighbors(queries, train, backend="sparse")


class TestSearchStats:
    def test_counts_partition_the_pair_set(self, random_walks):
        queries, train = random_walks
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="pruned", return_stats=True
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

    def test_reference_stats_report_dense_search(self, random_walks):
        queries, train = random_walks
        _, _, stats = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="reference", return_stats=True
        )
        assert stats.dp_computed == stats.n_pairs
        assert stats.pruning_rate == 0.0


class TestKNNRidesTheBackend:
    def test_dtw_metric_same_predictions_under_both_backends(self, monkeypatch):
        rng = np.random.default_rng(44)
        train = rng.standard_normal((16, 30)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 8)
        test = train + 0.05 * rng.standard_normal(train.shape)
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 0.2}
        ).fit(train, labels)
        reference = model.predict(test)
        with use_backend("pruned"):
            np.testing.assert_array_equal(model.predict(test), reference)
        monkeypatch.setenv(BACKEND_ENV_VAR, "pruned")
        np.testing.assert_array_equal(model.predict(test), reference)

    def test_dtw_metric_accepts_unequal_query_length(self):
        rng = np.random.default_rng(45)
        train = rng.standard_normal((10, 32)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 5)
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 10}
        ).fit(train, labels)
        short = rng.standard_normal((4, 26)).cumsum(axis=1)
        for backend in ("reference", "pruned"):
            with use_backend(backend):
                assert model.predict(short).shape == (4,)

    def test_dtw_metric_predict_proba_matches_predict(self):
        rng = np.random.default_rng(46)
        train = rng.standard_normal((12, 28)).cumsum(axis=1)
        labels = np.asarray(["a", "b"] * 6)
        test = rng.standard_normal((5, 28)).cumsum(axis=1)
        with use_backend("pruned"):
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


class TestDirectPrunedKernel:
    def test_return_without_stats_is_two_tuple(self, random_walks):
        queries, train = random_walks
        out = pruned_dtw_nearest_neighbors(queries, train, window=5)
        assert len(out) == 2

    def test_small_chunk_sizes_still_exact(self, random_walks):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=3, backend="reference"
        )
        pi, pd = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, n_neighbors=3, chunk_pairs=3
        )
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)

    def test_tiny_lb_block_budget_still_exact(self, random_walks):
        queries, train = random_walks
        ri, rd = dtw_nearest_neighbors(
            queries, train, window=0.1, backend="reference"
        )
        with memory_budget(1024):
            pi, pd = pruned_dtw_nearest_neighbors(queries, train, window=0.1)
        np.testing.assert_array_equal(ri, pi)
        np.testing.assert_array_equal(rd, pd)


class TestDenseRoutesIgnoreBackend:
    """The dense engine kernels are one numpy implementation under any backend.

    Only :func:`dtw_nearest_neighbors` consults the backend; every entry
    point that must fill a whole matrix answers the same under both.
    """

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_batch_prefix_distances(self, random_walks, backend):
        queries, train = random_walks
        lengths = [5, 17, 40]
        with use_backend(backend):
            out = batch_prefix_distances(queries, train, lengths)
        for k, length in enumerate(lengths):
            diff = queries[:, None, :length] - train[None, :, :length]
            naive = np.sqrt((diff**2).sum(axis=2))
            np.testing.assert_allclose(out[k], naive, rtol=1e-12)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_batch_prefix_distances_multichannel_squared(self, backend):
        rng = np.random.default_rng(48)
        queries = rng.standard_normal((5, 30, 3)).cumsum(axis=1)
        train = rng.standard_normal((9, 30, 3)).cumsum(axis=1)
        lengths = [3, 30]
        with use_backend(backend):
            out = batch_prefix_distances(queries, train, lengths, squared=True)
        for k, length in enumerate(lengths):
            diff = queries[:, None, :length] - train[None, :, :length]
            np.testing.assert_allclose(out[k], (diff**2).sum(axis=(2, 3)), rtol=1e-12)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_ragged_prefix_distances(self, random_walks, backend):
        queries, train = random_walks
        lengths = [3, 40, 17, 9, 1, 25, 40, 12, 33]
        with use_backend(backend):
            out = ragged_prefix_distances(queries, train, lengths)
        for qi, length in enumerate(lengths):
            diff = queries[qi, None, :length] - train[:, :length]
            np.testing.assert_allclose(
                out[qi], np.sqrt((diff**2).sum(axis=1)), rtol=1e-12
            )

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_dtw_pairwise_distances(self, unequal_walks, backend):
        queries, train = unequal_walks
        queries, train = queries[:4], train[:5]
        with use_backend(backend):
            out = dtw_pairwise_distances(queries, train, window=0.3)
        scalar = [
            [dtw_distance(q, t, window=0.3) for t in train] for q in queries
        ]
        np.testing.assert_array_equal(out, np.asarray(scalar))

    def test_dtw_pairwise_distances_takes_no_backend(self, random_walks):
        queries, train = random_walks
        with pytest.raises(TypeError, match="backend"):
            dtw_pairwise_distances(queries, train, window=0.1, backend="pruned")


class TestNonFiniteInput:
    """NaN/inf samples have no DTW rank: both backends reject them."""

    @pytest.fixture
    def batches(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(2, 20)), rng.normal(size=(5, 20))

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_nan_query_rejected(self, batches, backend):
        queries, train = batches
        queries[0, 3] = np.nan
        with pytest.raises(ValueError, match="queries contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2, backend=backend)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_inf_train_row_rejected_at_full_k(self, batches, backend):
        queries, train = batches
        train[1] = np.inf
        with pytest.raises(ValueError, match="train contains non-finite values"):
            dtw_nearest_neighbors(
                queries, train, window=0.2, n_neighbors=train.shape[0], backend=backend
            )

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_knn_dtw_predict_rejects_nan_query(self, batches, backend):
        queries, train = batches
        queries[0, 3] = np.nan
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 0.2}
        ).fit(train, ["a", "b", "a", "b", "a"])
        with use_backend(backend), pytest.raises(ValueError, match="non-finite"):
            model.predict(queries)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_knn_dtw_predict_proba_rejects_nan_query(self, batches, backend):
        queries, train = batches
        queries[1, 0] = np.nan
        model = KNeighborsTimeSeriesClassifier(
            n_neighbors=3, metric="dtw", metric_params={"window": 0.2}
        ).fit(train, ["a", "b", "a", "b", "a"])
        with use_backend(backend), pytest.raises(ValueError, match="non-finite"):
            model.predict_proba(queries)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_negative_inf_query_rejected(self, batches, backend):
        queries, train = batches
        queries[1, -1] = -np.inf
        with pytest.raises(ValueError, match="queries contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2, backend=backend)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_nan_train_sample_rejected_at_k1(self, batches, backend):
        queries, train = batches
        train[4, 0] = np.nan
        with pytest.raises(ValueError, match="train contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2, backend=backend)

    @pytest.mark.parametrize("backend", ["reference", "pruned"])
    def test_multichannel_nan_rejected(self, backend):
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(2, 20, 3))
        train = rng.normal(size=(5, 20, 3))
        queries[1, 7, 2] = np.nan
        with pytest.raises(ValueError, match="queries contains non-finite values"):
            dtw_nearest_neighbors(queries, train, window=0.2, backend=backend)

    @pytest.mark.parametrize("which", ["queries", "train"])
    def test_direct_pruned_call_rejects_non_finite(self, batches, which):
        queries, train = batches
        {"queries": queries, "train": train}[which][0, 0] = np.nan
        with pytest.raises(ValueError, match=f"{which} contains non-finite values"):
            pruned_dtw_nearest_neighbors(queries, train, window=0.2)


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
        _, _, stats = pruned_dtw_nearest_neighbors(
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
            pruned_dtw_nearest_neighbors(
                queries, train, window=0.1, envelope_cache=cache
            )
        assert cache.misses == 1
        assert cache.hits == 2
        assert len(cache) == 1

    def test_cached_search_is_bit_identical(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        first = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, envelope_cache=cache
        )
        second = pruned_dtw_nearest_neighbors(
            queries, train, window=0.1, envelope_cache=cache
        )
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_content_fingerprint_invalidates_on_new_data(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        pruned_dtw_nearest_neighbors(queries, train, window=0.1, envelope_cache=cache)
        pruned_dtw_nearest_neighbors(
            queries, train + 1.0, window=0.1, envelope_cache=cache
        )
        assert cache.misses == 2
        assert cache.hits == 0

    def test_band_is_part_of_the_key(self, random_walks):
        queries, train = random_walks
        cache = EnvelopeCache()
        pruned_dtw_nearest_neighbors(queries, train, window=4, envelope_cache=cache)
        pruned_dtw_nearest_neighbors(queries, train, window=8, envelope_cache=cache)
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

    def test_classifier_refit_gets_a_fresh_cache(self, random_walks):
        queries, train = random_walks
        labels = np.arange(train.shape[0]) % 2
        clf = KNeighborsTimeSeriesClassifier(metric="dtw", metric_params={"window": 0.1})
        clf.fit(train, labels)
        with use_backend("pruned"):
            clf.predict(queries)
            first_cache = clf._envelope_cache
            assert first_cache is not None and first_cache.misses == 1
            clf.predict(queries)
            assert first_cache.hits >= 1
            clf.fit(train, labels)
            assert clf._envelope_cache is not first_cache

    def test_prefix_dtw_engine_exposes_a_lazy_cache(self, random_walks):
        _, train = random_walks
        engine = PrefixDTWEngine(train, band=3)
        cache = engine.envelope_cache
        assert isinstance(cache, EnvelopeCache)
        assert engine.envelope_cache is cache
