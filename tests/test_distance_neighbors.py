"""Unit tests for repro.distance.neighbors."""

import numpy as np
import pytest

from repro.distance import neighbors
from repro.distance.dtw import dtw_distance
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.memory import MEMORY_BUDGET_ENV_VAR, memory_budget, set_memory_budget


class TestFitValidation:
    def test_rejects_1d_training_data(self, tiny_two_class):
        series, labels = tiny_two_class
        with pytest.raises(ValueError):
            KNeighborsTimeSeriesClassifier().fit(series[0], labels[:1])

    def test_rejects_label_mismatch(self, tiny_two_class):
        series, labels = tiny_two_class
        with pytest.raises(ValueError):
            KNeighborsTimeSeriesClassifier().fit(series, labels[:-1])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KNeighborsTimeSeriesClassifier(n_neighbors=0)

    def test_query_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KNeighborsTimeSeriesClassifier().predict(np.zeros(5))


class TestPrediction:
    def test_separable_problem_perfect_accuracy(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) == 1.0

    def test_training_points_classified_as_themselves(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        assert np.array_equal(model.predict(series), labels)

    def test_classes_property(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        assert model.classes_ == ("down", "up")

    def test_query_returns_neighbor_metadata(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=3).fit(series, labels)
        result = model.query(series[0])
        assert len(result.neighbor_indices) == 3
        assert len(result.neighbor_distances) == 3
        assert result.neighbor_distances[0] <= result.neighbor_distances[1]
        assert result.neighbor_indices[0] == 0  # itself

    def test_probabilities_sum_to_one(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=5).fit(series, labels)
        probabilities = model.predict_proba(series[:3])
        for row in probabilities:
            assert sum(row.values()) == pytest.approx(1.0)

    def test_query_length_mismatch_raises(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        with pytest.raises(ValueError):
            model.predict(np.zeros(series.shape[1] + 3))

    def test_znormalize_inputs_makes_offset_irrelevant(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(znormalize_inputs=True).fit(series, labels)
        shifted = series[1::2] + 50.0
        assert model.score(shifted, labels[1::2]) == 1.0

    def test_custom_metric_callable(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(metric=dtw_distance).fit(series[::2], labels[::2])
        assert model.score(series[1::2], labels[1::2]) == 1.0

    def test_unknown_metric_string_raises(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(metric="manhattan").fit(series, labels)
        with pytest.raises(ValueError):
            model.query(series[0])

    def test_score_label_mismatch_raises(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        with pytest.raises(ValueError):
            model.score(series, labels[:-2])


class TestTieBreaking:
    """Exact distance ties must resolve to the lowest training index on every path."""

    @pytest.fixture
    def duplicated_training(self):
        # Integer-valued, UCR-style data with exact duplicates carrying
        # different labels: index 0 and 2 are identical, as are 1 and 3.
        series = np.asarray(
            [
                [0.0, 1.0, 2.0, 3.0],
                [3.0, 2.0, 1.0, 0.0],
                [0.0, 1.0, 2.0, 3.0],
                [3.0, 2.0, 1.0, 0.0],
                [1.0, 1.0, 1.0, 2.0],
            ]
        )
        labels = np.asarray(["a", "b", "c", "d", "a"])
        return series, labels

    def test_query_and_predict_agree_on_ties(self, duplicated_training):
        series, labels = duplicated_training
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        queries = series[:4]
        predicted = model.predict(queries)
        per_query = np.asarray([model.query(q).label for q in queries])
        assert np.array_equal(predicted, per_query)
        # Lowest-index convention: the duplicates at indices 2/3 must map to
        # the labels of their lower-index twins 0/1.
        assert predicted.tolist() == ["a", "b", "a", "b"]

    def test_query_reports_lowest_index_neighbour(self, duplicated_training):
        series, labels = duplicated_training
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        assert model.query(series[2]).neighbor_indices[0] == 0
        assert model.query(series[3]).neighbor_indices[0] == 1

    def test_predict_prefixes_agrees_on_ties(self, duplicated_training):
        series, labels = duplicated_training
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        predicted = model.predict_prefixes(series[:4], [2, 4])
        for row in predicted:
            assert row.tolist() == ["a", "b", "a", "b"]

    def test_k3_stable_neighbour_order_on_ties(self, duplicated_training):
        series, labels = duplicated_training
        model = KNeighborsTimeSeriesClassifier(n_neighbors=3).fit(series, labels)
        # Ties between the two exact matches (0 and 2) keep index order.
        assert model.query(series[0]).neighbor_indices[:2] == (0, 2)


class TestVectorisedVote:
    """predict answers k > 1 from the one distance matrix, matching query."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("znorm", [False, True])
    def test_predict_matches_per_query_path(self, tiny_two_class, k, znorm):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=k, znormalize_inputs=znorm).fit(
            series[::2], labels[::2]
        )
        queries = series[1::2]
        predicted = model.predict(queries)
        per_query = np.asarray([model.query(q).label for q in queries])
        assert np.array_equal(predicted, per_query)

    @pytest.mark.parametrize("k", [1, 3])
    def test_prefix_sweep_streaming_fallback_matches_stacked(self, tiny_two_class, k):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=k).fit(series[::2], labels[::2])
        queries = series[1::2]
        lengths = list(range(1, series.shape[1] + 1))
        stacked = model.predict_prefixes(queries, lengths)
        # A one-matrix budget forces the incremental streaming path.
        with memory_budget(queries.shape[0] * series[::2].shape[0] * 8):
            streamed = model.predict_prefixes(queries, lengths)
        assert np.array_equal(stacked, streamed)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("znorm", [False, True])
    def test_full_length_prefix_matches_predict(self, tiny_two_class, k, znorm):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=k, znormalize_inputs=znorm).fit(
            series[::2], labels[::2]
        )
        queries = series[1::2]
        by_prefix = model.predict_prefixes(queries, [series.shape[1]])[0]
        assert np.array_equal(by_prefix, model.predict(queries))


class TestPrefixSweepBudget:
    """predict_prefixes stacks every length's matrix only within the budget.

    The decision reads the process budget at predict time: the stacked
    ``(n_lengths, n_queries, n_train)`` float64 array is built when it fits,
    and one matrix at a time is streamed otherwise.
    """

    @pytest.fixture
    def paths(self, monkeypatch):
        monkeypatch.delenv(MEMORY_BUDGET_ENV_VAR, raising=False)
        set_memory_budget(None)
        taken = []
        stacked, streamed = neighbors.batch_prefix_distances, neighbors.iter_prefix_distances

        def spy_stacked(*args, **kwargs):
            taken.append("stacked")
            return stacked(*args, **kwargs)

        def spy_streamed(*args, **kwargs):
            taken.append("streamed")
            return streamed(*args, **kwargs)

        monkeypatch.setattr(neighbors, "batch_prefix_distances", spy_stacked)
        monkeypatch.setattr(neighbors, "iter_prefix_distances", spy_streamed)
        yield taken
        set_memory_budget(None)

    @pytest.fixture
    def sweep(self, tiny_two_class):
        series, labels = tiny_two_class
        train, queries = series[::2], series[1::2]
        lengths = [5, 10, 20, series.shape[1]]
        model = KNeighborsTimeSeriesClassifier(n_neighbors=3).fit(train, labels[::2])
        stacked_bytes = len(lengths) * queries.shape[0] * train.shape[0] * 8
        return model, queries, lengths, stacked_bytes

    @pytest.mark.parametrize("slack, path", [(0, "stacked"), (-1, "streamed")])
    def test_path_switches_exactly_at_the_budget(self, paths, sweep, slack, path):
        model, queries, lengths, stacked_bytes = sweep
        expected = model.predict_prefixes(queries, lengths)
        paths.clear()
        with memory_budget(stacked_bytes + slack):
            got = model.predict_prefixes(queries, lengths)
        assert paths == [path]
        assert np.array_equal(got, expected)

    def test_budget_is_read_at_predict_time(self, paths, tiny_two_class):
        series, labels = tiny_two_class
        with memory_budget(8):
            model = KNeighborsTimeSeriesClassifier().fit(series[::2], labels[::2])
        model.predict_prefixes(series[1::2], [10, 20])
        set_memory_budget(8)
        model.predict_prefixes(series[1::2], [10, 20])
        assert paths == ["stacked", "streamed"]

    def test_environment_budget_reaches_the_sweep(self, paths, sweep, monkeypatch):
        model, queries, lengths, stacked_bytes = sweep
        expected = model.predict_prefixes(queries, lengths)
        monkeypatch.setenv(MEMORY_BUDGET_ENV_VAR, str(stacked_bytes - 1))
        assert np.array_equal(model.predict_prefixes(queries, lengths), expected)
        assert paths == ["stacked", "streamed"]


class TestZeroDistanceVote:
    """An exact-match neighbour deterministically dominates the soft vote."""

    def test_exact_match_takes_all_probability_mass(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=5).fit(series, labels)
        result = model.query(series[0])
        assert result.neighbor_distances[0] == 0.0
        assert result.probabilities[labels[0]] == 1.0
        assert result.label == labels[0]

    def test_tied_exact_matches_split_mass_uniformly(self):
        series = np.asarray(
            [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [5.0, 5.0, 5.0], [9.0, 9.0, 9.0]]
        )
        labels = np.asarray(["a", "b", "a", "b"])
        model = KNeighborsTimeSeriesClassifier(n_neighbors=4).fit(series, labels)
        result = model.query(series[0])
        # Both zero-distance neighbours share the mass; the non-matching
        # neighbours contribute nothing, regardless of any epsilon.
        assert result.probabilities["a"] == pytest.approx(0.5)
        assert result.probabilities["b"] == pytest.approx(0.5)

    def test_all_infinite_distances_fall_back_to_uniform_vote(self):
        series = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        labels = np.asarray(["a", "b"])
        model = KNeighborsTimeSeriesClassifier(
            n_neighbors=2, metric=lambda a, b: float("inf")
        ).fit(series, labels)
        result = model.query(series[0])
        assert result.probabilities["a"] == pytest.approx(0.5)
        assert result.probabilities["b"] == pytest.approx(0.5)

    def test_near_zero_distances_do_not_depend_on_magic_epsilon(self):
        # A neighbour at distance ~1e-8 used to be weighted 1/(d + 1e-9),
        # letting the smoothing constant rival the signal.  With the
        # convention tied to znorm.EPSILON the closer neighbour wins the
        # vote outright.
        base = np.asarray([0.0, 1.0, 0.0, 1.0])
        series = np.vstack([base + 1e-8, base + 1.0, base])
        labels = np.asarray(["close", "far", "query"])
        model = KNeighborsTimeSeriesClassifier(n_neighbors=2).fit(series[:2], labels[:2])
        result = model.query(base)
        assert result.label == "close"
        assert result.probabilities["close"] > 0.99


class TestGunPointAccuracy:
    def test_realistic_accuracy_band(self, gunpoint_medium):
        train, test = gunpoint_medium
        model = KNeighborsTimeSeriesClassifier().fit(train.series, train.labels)
        accuracy = model.score(test.series, test.labels)
        # The generator is tuned so that 1-NN on the full 25/75 split lands in
        # the low 90s like the real GunPoint; on this reduced split we only
        # require that the problem is clearly learnable but not trivial.
        assert 0.75 <= accuracy <= 1.0


class TestPredictProbaBatched:
    """predict_proba rides the same batched path as predict, by construction."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("znorm", [False, True])
    def test_matches_per_query_probabilities(self, tiny_two_class, k, znorm):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=k, znormalize_inputs=znorm).fit(
            series[::2], labels[::2]
        )
        queries = series[1::2]
        batched = model.predict_proba(queries)
        looped = [model.query(q).probabilities for q in np.asarray(queries, dtype=float)]
        for fast, reference in zip(batched, looped):
            assert fast.keys() == reference.keys()
            for cls in fast:
                # The batched path shares predict's BLAS matrix; the old
                # per-query loop could differ from it in the last ulp.
                assert fast[cls] == pytest.approx(reference[cls], abs=1e-9)

    def test_argmax_agrees_with_predict(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(n_neighbors=3).fit(series[::2], labels[::2])
        queries = series[1::2]
        predicted = model.predict(queries)
        probas = model.predict_proba(queries)
        for label, proba in zip(predicted, probas):
            assert max(proba.items(), key=lambda item: item[1])[0] == label

    def test_single_1d_query_promoted(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        probas = model.predict_proba(series[0])
        assert len(probas) == 1
        assert probas[0] == model.query(series[0]).probabilities

    def test_exact_ties_on_duplicated_training_rows(self):
        series = np.asarray(
            [[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0],
             [0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]]
        )
        labels = np.asarray(["a", "b", "a", "b"])
        model = KNeighborsTimeSeriesClassifier(n_neighbors=2).fit(series, labels)
        probas = model.predict_proba(series[:2])
        assert probas[0]["a"] == pytest.approx(1.0)
        assert probas[1]["b"] == pytest.approx(1.0)


class TestDTWMetricString:
    def test_dtw_metric_matches_callable_dtw(self, tiny_two_class):
        series, labels = tiny_two_class
        fast = KNeighborsTimeSeriesClassifier(metric="dtw").fit(series[::2], labels[::2])
        slow = KNeighborsTimeSeriesClassifier(metric=dtw_distance).fit(
            series[::2], labels[::2]
        )
        queries = series[1::2]
        assert np.array_equal(fast.predict(queries), slow.predict(queries))

    def test_dtw_metric_window_parameter_is_used(self, tiny_two_class):
        series, labels = tiny_two_class
        banded = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 0}
        ).fit(series[::2], labels[::2])
        constrained = KNeighborsTimeSeriesClassifier(
            metric=lambda a, b: dtw_distance(a, b, window=0)
        ).fit(series[::2], labels[::2])
        queries = series[1::2]
        assert np.array_equal(banded.predict(queries), constrained.predict(queries))

    def test_dtw_metric_allows_shorter_queries(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": None}
        ).fit(series, labels)
        short = series[:3, :-2]
        assert model.predict(short).shape == (3,)

    def test_dtw_metric_predict_prefixes(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(
            metric="dtw", metric_params={"window": 2}
        ).fit(series[::2], labels[::2])
        out = model.predict_prefixes(series[1::2], [3, series.shape[1]])
        assert out.shape == (2, series[1::2].shape[0])
