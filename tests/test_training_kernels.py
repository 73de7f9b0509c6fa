"""Equivalence suite for the vectorised training-engine fit kernels.

Every fit-side kernel introduced by the training engine keeps its original
Python-loop implementation as the semantic reference; this suite pins the
vectorised paths to those references:

* ECTS MPLs and supports **exactly** (integer MPLs, rational supports),
  across strict/relaxed variants, checkpoint steps, duplicate-exemplar
  tie-break cases and both kernel branches (dense cumulative-sum pass and
  the copy-free incremental sweep);
* EDSC candidate mining (extraction, threshold learning, scoring) and the
  resulting shapelet selection **exactly**, for both threshold estimators,
  under a fixed seed;
* the EDSC-KDE coarse-to-fine threshold search **exactly** against the
  oracle's full 200-point grid, on the Table 1 split, a 6-channel set and
  constructed rows that reach each branch of the search.
"""

import numpy as np
import pytest

import repro.classifiers.ects as ects_module
import repro.classifiers.edsc as edsc_module
from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.data.ucr_like import make_multichannel_cbf_dataset
from repro.experiments import table1

from oracles.ects import fit_reference as ects_fit_reference
from oracles.edsc import (
    evaluate_candidates_of_length_reference,
    fit_reference,
    kde_curve,
    learn_threshold,
)


def _labelled_problem(seed: int, n: int = 25, length: int = 40, duplicates: bool = True):
    """A random three-class problem, optionally with exact duplicate exemplars."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, length))
    labels = np.array(["a", "b", "c"])[rng.integers(0, 3, n)]
    if duplicates:
        # Exact duplicates exercise the lowest-index tie-break of every
        # nearest-neighbour selection at every prefix length.
        data[n // 2] = data[0]
        data[n // 2 + 1] = data[0]
        labels[n // 2] = labels[0]
    return data, labels


def _two_bump_problem(seed: int, n: int = 24, length: int = 48):
    """The separable bump problem EDSC solves from an early prefix."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=float)
    bump = np.exp(-0.5 * ((t - 12.0) / 3.0) ** 2)
    signs = [1.0 if i % 2 == 0 else -1.0 for i in range(n)]
    series = np.array(
        [sign * bump + 0.05 * rng.standard_normal(length) for sign in signs]
    )
    labels = np.array(["up" if sign > 0 else "down" for sign in signs])
    return series, labels


def _shapelet_key(shapelet):
    return (
        shapelet.label,
        shapelet.threshold,
        shapelet.utility,
        shapelet.precision,
        shapelet.source_index,
        shapelet.source_position,
        shapelet.values.tobytes(),
    )


class TestECTSFitKernels:
    @pytest.mark.parametrize("classifier", [ECTSClassifier, RelaxedECTSClassifier])
    @pytest.mark.parametrize("step", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mpls_and_supports_match_reference_exactly(self, classifier, step, seed):
        data, labels = _labelled_problem(seed)
        fitted = classifier(checkpoint_step=step).fit(data, labels)
        reference = ects_fit_reference(classifier(checkpoint_step=step), data, labels)
        assert np.array_equal(fitted.mpl_, reference.mpl_)
        assert np.array_equal(fitted.support_, reference.support_)
        assert np.array_equal(fitted._eligible, reference._eligible)

    @pytest.mark.parametrize("classifier", [ECTSClassifier, RelaxedECTSClassifier])
    def test_duplicate_exemplar_tie_breaks(self, classifier):
        # A dataset dominated by exact duplicates: nearest-neighbour ties at
        # every length, which both paths must resolve to the lowest index.
        rng = np.random.default_rng(3)
        base = rng.standard_normal((4, 30))
        data = np.vstack([base, base, base[:2]])
        labels = np.array(["x", "y", "x", "y"] * 2 + ["x", "y"])
        fitted = classifier().fit(data, labels)
        reference = ects_fit_reference(classifier(), data, labels)
        assert np.array_equal(fitted.mpl_, reference.mpl_)
        assert np.array_equal(fitted.support_, reference.support_)

    @pytest.mark.parametrize("step", [1, 4])
    def test_sweep_branch_matches_dense_branch(self, monkeypatch, step):
        # The kernel picks dense vs incremental-sweep by a byte budget;
        # forcing the budget to zero exercises the sweep branch on a problem
        # the dense branch would normally take.
        data, labels = _labelled_problem(2)
        dense = ECTSClassifier(checkpoint_step=step).fit(data, labels)
        monkeypatch.setattr(ects_module, "_FIT_BLOCK_BYTES", 0)
        swept = ECTSClassifier(checkpoint_step=step).fit(data, labels)
        assert np.array_equal(dense.mpl_, swept.mpl_)
        assert np.array_equal(dense.support_, swept.support_)

    def test_support_kernel_matches_reference_on_gunpoint(self, gunpoint_small):
        train, _ = gunpoint_small
        fitted = ECTSClassifier(checkpoint_step=2).fit(train.series, train.labels)
        reference = ects_fit_reference(
            ECTSClassifier(checkpoint_step=2), train.series, train.labels
        )
        assert np.array_equal(fitted.support_, reference.support_)
        assert np.array_equal(fitted.mpl_, reference.mpl_)

    def test_checkpoints_share_the_mpl_length_grid(self, tiny_two_class):
        series, labels = tiny_two_class
        model = ECTSClassifier(checkpoint_step=7).fit(series, labels)
        assert model.checkpoints() == model._mpl_lengths(series.shape[1])

    def test_predict_partial_reuses_fitted_engine(self, tiny_two_class, monkeypatch):
        series, labels = tiny_two_class
        model = ECTSClassifier(checkpoint_step=2).fit(series, labels)

        def _no_new_engines(*args, **kwargs):
            raise AssertionError("predict_partial must reuse the fitted engine")

        monkeypatch.setattr(ects_module, "PrefixDistanceEngine", _no_new_engines)
        partial = model.predict_partial(series[0][:10])
        assert partial.label in model.classes_


class TestEDSCFitKernels:
    @pytest.mark.parametrize("method", ["che", "kde"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_selects_identical_shapelets(self, method, seed):
        series, labels = _two_bump_problem(seed)
        fitted = EDSCClassifier(threshold_method=method).fit(series, labels)
        reference = fit_reference(
            EDSCClassifier(threshold_method=method), series, labels
        )
        assert [_shapelet_key(s) for s in fitted.shapelets_] == [
            _shapelet_key(s) for s in reference.shapelets_
        ]

    @pytest.mark.parametrize("method", ["che", "kde"])
    def test_candidate_evaluation_matches_reference_per_length(self, method):
        series, labels = _two_bump_problem(4)
        model = EDSCClassifier(threshold_method=method)
        for window in (5, 9):
            batched = model._evaluate_candidates_of_length(
                series, labels, window, np.random.default_rng(13)
            )
            reference = evaluate_candidates_of_length_reference(
                model, series, labels, window, np.random.default_rng(13)
            )
            assert [_shapelet_key(s) for s in batched] == [
                _shapelet_key(s) for s in reference
            ]

    def test_subsampling_consumes_the_generator_identically(self):
        # With a cap below the candidate count both paths must draw the same
        # per-class subsample from the same generator state.
        series, labels = _two_bump_problem(5)
        model = EDSCClassifier(threshold_method="che", max_candidates_per_class=20)
        batched = model._evaluate_candidates_of_length(
            series, labels, 7, np.random.default_rng(21)
        )
        reference = evaluate_candidates_of_length_reference(
            model, series, labels, 7, np.random.default_rng(21)
        )
        assert [_shapelet_key(s) for s in batched] == [
            _shapelet_key(s) for s in reference
        ]

    @pytest.mark.parametrize("method", ["che", "kde"])
    def test_fit_on_gunpoint_matches_reference(self, gunpoint_small, method):
        train, _ = gunpoint_small
        fitted = EDSCClassifier(threshold_method=method).fit(
            train.series, train.labels
        )
        reference = fit_reference(
            EDSCClassifier(threshold_method=method), train.series, train.labels
        )
        assert [_shapelet_key(s) for s in fitted.shapelets_] == [
            _shapelet_key(s) for s in reference.shapelets_
        ]


def _threshold_calls(series, labels):
    """The ``_learn_thresholds_batch`` arguments of one default EDSC-KDE fit.

    They do not depend on ``target_precision``, so one fit serves every
    precision a test checks.
    """
    calls = []
    learn = EDSCClassifier._learn_thresholds_batch

    def recording(self, *args):
        calls.append(args)
        return learn(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EDSCClassifier, "_learn_thresholds_batch", recording)
        EDSCClassifier(threshold_method="kde").fit(series, labels)
    return calls


def _assert_thresholds_match_oracle(model, distances, candidate_labels, source_index, labels):
    """Batched thresholds equal the oracle's, row by row (``None`` as ``NaN``)."""
    got = model._learn_thresholds_batch(distances, candidate_labels, source_index, labels)
    want = np.full(distances.shape[0], np.nan)
    for row in range(distances.shape[0]):
        threshold = learn_threshold(
            model, distances[row], labels == candidate_labels[row], exclude=source_index[row]
        )
        if threshold is not None:
            want[row] = threshold
    assert np.array_equal(got, want, equal_nan=True)


def _one_candidate(target, non_target):
    """Threshold arguments of one candidate with the given sample distances.

    The candidate's source exemplar is column 0 (excluded from its own
    target sample), followed by the other targets and the non-targets.
    """
    distances = np.concatenate([[0.0], target, non_target])[None, :]
    labels = np.array(["a"] * (1 + len(target)) + ["b"] * len(non_target))
    return distances, np.array(["a"]), np.array([0]), labels


def _oracle_threshold(model, target, non_target):
    distances, _, _, labels = _one_candidate(target, non_target)
    return learn_threshold(model, distances[0], labels == "a", exclude=0)


#: Targets below non-targets: precision falls strictly along the whole grid.
_FALLING = (np.linspace(0.0, 2.0, 20), np.array([4.0, 5.0, 6.0]))

#: name -> (target, non_target, target_precision, grid index of the answer).
#: An ``int`` precision means "the oracle's precision at that grid index".
_EDGE_ROWS = {
    "every_point_acceptable": (np.linspace(0.1, 1.0, 10), np.array([100.0, 100.5]), 0.9, 199),
    "no_point_acceptable": (np.linspace(5.0, 7.0, 6), np.linspace(0.1, 1.0, 12), 0.95, None),
    "answer_on_a_coarse_point": (*_FALLING, 96, 96),
    "answer_inside_the_top_gap": (*_FALLING, 196, 196),
    # Non-targets far above the targets: precision rounds to exactly 1.0
    # until N reaches 1e-16 of T, so at target 1.0 the answer's gap has a
    # bound exactly at the target, which only a non-negative slack refines.
    "target_precision_one": (
        1000.0 + np.linspace(0.0, 5.0, 8), 1060.0 + np.linspace(0.0, 5.0, 8), 1.0, 154
    ),
    "zero_spread": (np.ones(5), np.ones(4), 0.9, None),
    "one_target_left": (np.array([0.5]), np.array([2.0, 3.0, 3.5]), 0.9, 28),
    "one_non_target": (np.linspace(0.1, 1.0, 6), np.array([3.0]), 0.9, None),
}


class TestEDSCKDEThresholdSearch:
    """The coarse-to-fine KDE search returns the oracle's thresholds bit for bit."""

    @pytest.fixture(scope="class")
    def table1_calls(self):
        train = table1.prepare().train
        return _threshold_calls(train.series, train.labels)

    @pytest.mark.parametrize("target_precision", [0.5, 0.8, 0.9, 0.95, 1.0])
    def test_table1_split_matches_oracle(self, table1_calls, target_precision):
        model = EDSCClassifier(threshold_method="kde", target_precision=target_precision)
        assert len(table1_calls) == 4
        for args in table1_calls:
            _assert_thresholds_match_oracle(model, *args)

    def test_multichannel_cbf_matches_oracle(self):
        dataset = make_multichannel_cbf_dataset(n_per_class=10)
        assert dataset.series.shape[2] == 6
        model = EDSCClassifier(threshold_method="kde")
        for args in _threshold_calls(dataset.series, dataset.labels):
            _assert_thresholds_match_oracle(model, *args)

    @pytest.mark.parametrize("case", sorted(_EDGE_ROWS))
    def test_constructed_rows_match_oracle(self, case):
        target, non_target, precision, answer = _EDGE_ROWS[case]
        curve = kde_curve(target, non_target)
        if isinstance(precision, int):
            precision = float(curve[3][precision])
        model = EDSCClassifier(threshold_method="kde", target_precision=precision)
        # The case's premise: the oracle's answer is the named grid point.
        want = _oracle_threshold(model, target, non_target)
        assert want == (None if answer is None else curve[0][answer])
        _assert_thresholds_match_oracle(model, *_one_candidate(target, non_target))

    def test_acceptable_set_with_a_hole(self):
        # Two target clusters around a non-target one: precision falls, then
        # recovers to a second, narrower peak.  At the peak's precision the
        # answer sits inside a gap above coarse misses, and the gap just
        # above the highest coarse hit also holds (lower) hits.
        target = np.r_[np.linspace(0.0, 0.5, 6), np.linspace(3.0, 3.2, 6)]
        non_target = np.r_[np.linspace(1.5, 2.0, 6), [5.0, 5.5]]
        grid, _, _, precision = kde_curve(target, non_target)
        answer = 100 + int(np.argmax(precision[100:]))
        model = EDSCClassifier(threshold_method="kde", target_precision=float(precision[answer]))
        acceptable = precision >= model.target_precision
        coarse = np.r_[np.arange(0, 199, 8), 199]
        best_coarse = coarse[acceptable[coarse]].max()
        assert answer not in coarse and np.flatnonzero(acceptable).max() == answer
        assert acceptable[best_coarse + 1] and not acceptable[best_coarse + 8]
        _assert_thresholds_match_oracle(model, *_one_candidate(target, non_target))

    def test_zero_over_zero_bottom_region(self):
        # Every distance sits far above the bandwidth, so both CDFs underflow
        # to 0 over the bottom of the grid, where 0 / 0 counts as acceptable.
        # The non-targets come first: the region ends inside a gap whose
        # upper coarse point has T == 0 < N, so the gap's bound is 0 / 0 and
        # only the "below the smallest normal float" rule refines it.
        target = 1060.0 + np.linspace(0.0, 5.0, 8)
        non_target = 1000.0 + np.linspace(0.0, 5.0, 8)
        grid, t, n, _ = kde_curve(target, non_target)
        answer = np.flatnonzero(t + n == 0).max()
        lower = answer // 8 * 8
        assert answer != lower and t[lower + 8] == 0 < n[lower + 8] and n[lower] == 0
        model = EDSCClassifier(threshold_method="kde", target_precision=0.9)
        assert _oracle_threshold(model, target, non_target) == grid[answer]
        _assert_thresholds_match_oracle(model, *_one_candidate(target, non_target))

    def test_one_byte_block_gives_identical_thresholds(self, gunpoint_small, monkeypatch):
        train, _ = gunpoint_small
        args = _threshold_calls(train.series, train.labels)[0]
        model = EDSCClassifier(threshold_method="kde")
        expected = model._learn_thresholds_batch(*args)
        monkeypatch.setattr(edsc_module, "_KDE_BLOCK_BYTES", 1)
        assert np.array_equal(model._learn_thresholds_batch(*args), expected, equal_nan=True)
