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
* the DTW wavefront dynamic program against the scalar double loop to
  <= 1e-10 (in fact bit-for-bit) across band specifications and unequal
  lengths, plus ``dtw_path`` validity on the wavefront costs.
"""

import numpy as np
import pytest

import repro.classifiers.ects as ects_module
from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.distance.dtw import (
    _accumulated_cost,
    _resolve_band,
    dtw_distance,
    dtw_path,
)

from oracles.dtw import accumulated_cost_reference


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
        reference = classifier(checkpoint_step=step)._fit_reference(data, labels)
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
        reference = classifier()._fit_reference(data, labels)
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
        reference = ECTSClassifier(checkpoint_step=2)._fit_reference(
            train.series, train.labels
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
        reference = EDSCClassifier(threshold_method=method)._fit_reference(
            series, labels
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
            reference = model._evaluate_candidates_of_length_reference(
                series, labels, window, np.random.default_rng(13)
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
        reference = model._evaluate_candidates_of_length_reference(
            series, labels, 7, np.random.default_rng(21)
        )
        assert [_shapelet_key(s) for s in batched] == [
            _shapelet_key(s) for s in reference
        ]

    def test_fit_on_gunpoint_matches_reference(self, gunpoint_small):
        train, _ = gunpoint_small
        fitted = EDSCClassifier(threshold_method="che").fit(
            train.series, train.labels
        )
        reference = EDSCClassifier(threshold_method="che")._fit_reference(
            train.series, train.labels
        )
        assert [_shapelet_key(s) for s in fitted.shapelets_] == [
            _shapelet_key(s) for s in reference.shapelets_
        ]


class TestDTWWavefront:
    @pytest.mark.parametrize("shape", [(30, 30), (25, 40), (40, 25), (1, 7), (7, 1)])
    @pytest.mark.parametrize("window", [None, 0, 3, 10, 0.0, 0.1, 0.5, 1.0])
    def test_cost_matrix_matches_reference(self, shape, window):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        a = rng.standard_normal(shape[0])
        b = rng.standard_normal(shape[1])
        band = _resolve_band(shape[0], shape[1], window)
        reference = accumulated_cost_reference(a, b, band)
        wavefront = _accumulated_cost(a, b, band)
        # Each wavefront cell performs the reference recurrence verbatim, so
        # the equivalence is exact, not merely <= 1e-10.
        assert np.array_equal(reference, wavefront)

    @pytest.mark.parametrize("window", [None, 5, 0.2])
    def test_distance_matches_reference_dp(self, window):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(33)
        b = rng.standard_normal(27)
        band = _resolve_band(33, 27, window)
        cost = accumulated_cost_reference(a, b, band)
        expected = float(np.sqrt(cost[33, 27]))
        assert dtw_distance(a, b, window=window) == pytest.approx(
            expected, abs=1e-10
        )

    @pytest.mark.parametrize("window", [None, 4, 0.3])
    def test_path_valid_on_wavefront_costs(self, window):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(14)
        b = rng.standard_normal(19)
        path = dtw_path(a, b, window=window)
        assert path[0] == (0, 0)
        assert path[-1] == (13, 18)
        for (i1, j1), (i2, j2) in zip(path, path[1:]):
            assert 0 <= i2 - i1 <= 1
            assert 0 <= j2 - j1 <= 1
            assert (i2 - i1) + (j2 - j1) >= 1
        if window is not None:
            band = _resolve_band(14, 19, window)
            assert all(abs(i - j) <= band for i, j in path)
