"""Unit tests for repro.distance.neighbors (the 1-NN Euclidean classifier)."""

import contextlib

import numpy as np
import pytest

from repro.distance import neighbors
from repro.distance.engine import batch_prefix_distances
from repro.distance.euclidean import euclidean_distance
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.distance.znorm import znormalize
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

    def test_rejects_an_empty_training_set(self):
        with pytest.raises(ValueError, match="at least one training series"):
            KNeighborsTimeSeriesClassifier().fit(np.zeros((0, 5)), np.zeros(0))

    def test_query_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KNeighborsTimeSeriesClassifier().predict(np.zeros(5))
        with pytest.raises(RuntimeError):
            KNeighborsTimeSeriesClassifier().predict_prefixes(np.zeros(5), [2])


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
        assert model.is_fitted

    def test_query_length_mismatch_raises(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        with pytest.raises(ValueError, match="does not match training length"):
            model.predict(np.zeros(series.shape[1] + 3))

    def test_znormalize_inputs_makes_offset_irrelevant(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(znormalize_inputs=True).fit(series, labels)
        shifted = series[1::2] + 50.0
        assert model.score(shifted, labels[1::2]) == 1.0

    def test_score_label_mismatch_raises(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        with pytest.raises(ValueError):
            model.score(series, labels[:-2])

    @pytest.mark.parametrize("bad", [[0], [1, 41], []])
    def test_prefix_lengths_validated(self, tiny_two_class, bad):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        with pytest.raises(ValueError, match="lengths must be non-empty"):
            model.predict_prefixes(series, bad)

    def test_prefix_queries_shorter_than_the_longest_length_rejected(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        with pytest.raises(ValueError, match="shorter than the longest"):
            model.predict_prefixes(series[:, :10], [5, 20])

    def test_prefixes_keep_the_requested_order(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series[::2], labels[::2])
        forward = model.predict_prefixes(series[1::2], [5, 20, 40])
        backward = model.predict_prefixes(series[1::2], [40, 20, 5])
        assert np.array_equal(forward[::-1], backward)


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

    def test_predict_takes_the_lower_index_twin(self, duplicated_training):
        series, labels = duplicated_training
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        # Lowest-index convention: the duplicates at indices 2/3 must map to
        # the labels of their lower-index twins 0/1.
        assert model.predict(series[:4]).tolist() == ["a", "b", "a", "b"]

    def test_per_row_predict_agrees_on_ties(self, duplicated_training):
        series, labels = duplicated_training
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        per_row = [model.predict(row)[0] for row in series[:4]]
        assert per_row == model.predict(series[:4]).tolist()

    def test_predict_prefixes_agrees_on_ties(self, duplicated_training):
        series, labels = duplicated_training
        model = KNeighborsTimeSeriesClassifier().fit(series, labels)
        predicted = model.predict_prefixes(series[:4], [2, 4])
        for row in predicted:
            assert row.tolist() == ["a", "b", "a", "b"]


class TestBatchedPaths:
    @pytest.mark.parametrize("znorm", [False, True])
    def test_predict_matches_per_row_predict(self, tiny_two_class, znorm):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(znormalize_inputs=znorm).fit(
            series[::2], labels[::2]
        )
        queries = series[1::2]
        per_row = np.asarray([model.predict(q)[0] for q in queries])
        assert np.array_equal(model.predict(queries), per_row)

    def test_prefix_sweep_streaming_fallback_matches_stacked(self, tiny_two_class):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier().fit(series[::2], labels[::2])
        queries = series[1::2]
        lengths = list(range(1, series.shape[1] + 1))
        stacked = model.predict_prefixes(queries, lengths)
        # A one-matrix budget forces the incremental streaming path.
        with memory_budget(queries.shape[0] * series[::2].shape[0] * 8):
            streamed = model.predict_prefixes(queries, lengths)
        assert np.array_equal(stacked, streamed)

    @pytest.mark.parametrize("znorm", [False, True])
    def test_full_length_prefix_matches_predict(self, tiny_two_class, znorm):
        series, labels = tiny_two_class
        model = KNeighborsTimeSeriesClassifier(znormalize_inputs=znorm).fit(
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
        model = KNeighborsTimeSeriesClassifier().fit(train, labels[::2])
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


class TestGunPointAccuracy:
    def test_realistic_accuracy_band(self, gunpoint_medium):
        train, test = gunpoint_medium
        model = KNeighborsTimeSeriesClassifier().fit(train.series, train.labels)
        accuracy = model.score(test.series, test.labels)
        # The generator is tuned so that 1-NN on the full 25/75 split lands in
        # the low 90s like the real GunPoint; on this reduced split we only
        # require that the problem is clearly learnable but not trivial.
        assert 0.75 <= accuracy <= 1.0


# ---------------------------------------------------------------------------
# The 1-NN contract against a brute-force oracle: each query takes the label
# of the training series that is first in (naive distance, training index)
# order.
# ---------------------------------------------------------------------------


def _oracle(train, labels, queries):
    """Per query, the label of its brute-force nearest neighbour."""
    answers = []
    for q in queries:
        dists = [euclidean_distance(q, t) for t in train]
        nearest = min(range(len(train)), key=lambda j: (dists[j], j))
        answers.append(labels[nearest])
    return answers


def _oracle_data(name):
    """``(train, labels, queries, znormalize_inputs)`` for an oracle case.

    ``integer_duplicates`` is UCR-style integer data whose training rows 6-8
    repeat rows 0-2 under other labels, queried with exact copies and fresh
    rows (every distance is exact, so ties are exact).  ``constant_znormalized``
    z-normalises constant rows to zeros, so every distance to them ties.  The
    other cases are random with no distance within 1e-9 of another, so
    round-off cannot reorder them.
    """
    rng = np.random.default_rng(_ORACLE_CASES.index(name))
    if name == "integer_duplicates":
        base = rng.integers(-3, 4, size=(6, 8)).astype(float)
        train = np.vstack([base, base[:3]])
        labels = np.asarray(["a", "b", "c", "a", "b", "c", "c", "a", "b"])
        fresh = rng.integers(-3, 4, size=(5, 8)).astype(float)
        return train, labels, np.vstack([train[[0, 4, 7]], fresh]), False
    if name == "integer_labels_tied_by_value":
        # Small integers: many exact distance ties between differently
        # labelled rows.
        train = rng.integers(0, 2, size=(10, 6)).astype(float)
        labels = np.arange(10) % 3
        return train, labels, rng.integers(0, 2, size=(12, 6)).astype(float), False
    if name == "constant_znormalized":
        train = np.vstack([np.full(8, 2.0), np.full(8, -1.0), rng.normal(size=(3, 8))])
        labels = np.asarray(["flat", "low", "x", "y", "x"])
        queries = np.vstack([np.full(8, 5.0), rng.normal(size=(3, 8))])
        return train, labels, queries, True
    shapes = {
        "random_raw": (12, 20, 8),
        "random_znormalized": (12, 20, 8),
        "single_training_series": (1, 15, 4),
        "single_query": (9, 15, 1),
        "many_classes": (30, 12, 10),
    }
    n_train, length, n_queries = shapes[name]
    train = rng.normal(size=(n_train, length))
    if name == "many_classes":
        labels = np.arange(n_train)
    else:
        labels = np.asarray(list("abc") * 10)[:n_train]
    queries = rng.normal(size=(n_queries, length))
    znorm = name == "random_znormalized"
    stored_train, stored_queries = _stored(znorm, train, queries)
    distances = batch_prefix_distances(stored_queries, stored_train, _prefix_lengths(length))
    ranked = np.sort(distances, axis=2)
    assert np.all(np.diff(ranked, axis=2) > 1e-9)
    return train, labels, queries, znorm


_ORACLE_CASES = [
    "integer_duplicates",
    "random_raw",
    "random_znormalized",
    "integer_labels_tied_by_value",
    "constant_znormalized",
    "single_training_series",
    "single_query",
    "many_classes",
]


def _prefix_lengths(length):
    return sorted({1, 2, length // 2, length})


def _stored(znorm, *arrays):
    """The arrays as a model with ``znormalize_inputs=znorm`` compares them."""
    return tuple(znormalize(a) for a in arrays) if znorm else arrays


class TestBruteForceOracle:
    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_predict_matches_oracle(self, case):
        train, labels, queries, znorm = _oracle_data(case)
        model = KNeighborsTimeSeriesClassifier(znormalize_inputs=znorm).fit(train, labels)
        stored_train, stored_queries = _stored(znorm, train, queries)
        expected = _oracle(stored_train, labels, stored_queries)
        assert model.predict(queries).tolist() == expected

    @pytest.mark.parametrize("path", ["stacked", "streamed"])
    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_prefixes_are_models_on_the_stored_prefixes(self, case, path):
        """Each length answers like a model fitted on the stored (not re-normalised) prefixes."""
        train, labels, queries, znorm = _oracle_data(case)
        lengths = _prefix_lengths(train.shape[1])
        model = KNeighborsTimeSeriesClassifier(znormalize_inputs=znorm).fit(train, labels)
        train, stored_queries = _stored(znorm, train, queries)
        budget = memory_budget(8) if path == "streamed" else contextlib.nullcontext()
        with budget:
            got = model.predict_prefixes(queries, lengths)
        for row, length in zip(got, lengths):
            expected = _oracle(train[:, :length], labels, stored_queries[:, :length])
            assert row.tolist() == expected
            fresh = KNeighborsTimeSeriesClassifier()
            fresh.fit(train[:, :length], labels)
            assert np.array_equal(row, fresh.predict(stored_queries[:, :length]))

    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_score_is_the_oracle_accuracy(self, case):
        train, labels, queries, znorm = _oracle_data(case)
        model = KNeighborsTimeSeriesClassifier(znormalize_inputs=znorm).fit(train, labels)
        truth = labels[np.arange(queries.shape[0]) % labels.shape[0]]
        stored_train, stored_queries = _stored(znorm, train, queries)
        expected = _oracle(stored_train, labels, stored_queries)
        assert model.score(queries, truth) == np.mean(np.asarray(expected) == truth)
