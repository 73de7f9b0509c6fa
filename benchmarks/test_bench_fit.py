"""Benchmarks for the vectorised training engine (fit-side kernels).

PR 4 made *prediction* test-set-at-once; these benchmarks gate the same
treatment of *training*.  The ECTS and EDSC fits were rewritten as array
kernels, each keeping its original Python-loop implementation as the
semantic reference:

* **ECTS** -- MPLs and supports from a ``(n_lengths, n)`` nearest-index
  matrix (dense cumulative-sum pass or incremental sweep) instead
  of per-length frozenset RNN structures and an O(n * L) per-exemplar walk.
  The gate times a full ``checkpoint_step=1`` fit in the per-tenant refit
  regime the training engine is motivated by (small fresh training sets,
  long series, a checkpoint at every sample), both sides as medians of
  interleaved runs of a few back-to-back fits.
* **EDSC** -- candidate extraction via ``sliding_window_view`` and threshold
  learning / scoring batched across the whole ``(n_candidates, n_series)``
  best-match distance matrix.  The gate times the candidate-mining stage
  (the per-candidate Python loop that was replaced) at Table 1 scale with
  the shared best-match kernel factored out, as medians of interleaved
  runs; the full fit (both threshold methods) is additionally asserted to
  reproduce the reference shapelets exactly and not to regress.  (The full
  EDSC-CHE fit improves ~1.3x, not 5x: its wall clock is dominated by the
  best-match GEMM kernel, which was already vectorised and is shared by
  both paths bit for bit.)
* **EDSC-KDE thresholds** -- the coarse-to-fine KDE grid search replayed on
  the 8 threshold calls of one Table 1 fit: identical thresholds to the
  per-candidate oracle, and at most a quarter of the full grid's ``ndtr``
  evaluations.

Every comparison asserts output equivalence (exact for MPLs/supports,
thresholds and shapelet selection) before asserting speed:
a fast kernel that drifts is a failure, not a win.  The reference loops are
the oracles in ``tests/oracles/``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.classifiers.edsc as edsc_module
from repro.classifiers.ects import ECTSClassifier
from repro.classifiers.edsc import EDSCClassifier, _best_match_distances
from repro.data.gunpoint import GunPointGenerator
from repro.experiments import table1

from oracles.ects import fit_reference as ects_fit_reference
from oracles.edsc import fit_reference, learn_threshold, score_candidate

REQUIRED_SPEEDUP = 5.0

#: The KDE threshold search may evaluate at most this share of the full
#: 200-point grid's ``ndtr`` calls (0.165 measured on the Table 1 split).
MAX_KDE_GRID_SHARE = 0.25

#: The per-tenant refit shape of the ECTS gate: a small fresh training set
#: with long exemplars and a checkpoint at every sample.
ECTS_N_PER_CLASS = 10
ECTS_LENGTH = 300

#: Fits per timed side of the ECTS gate, run back to back as a refit loop
#: would: interleaving leaves each side's first fit to run on caches the
#: other side has just cooled, which cost the vectorised fit about a third.
ECTS_FITS_PER_SIDE = 4

#: Table 1 scale (the paper's GunPoint split): 25 train exemplars per class,
#: length 150.
TABLE1_N_PER_CLASS = 25
TABLE1_LENGTH = 150


def _gunpoint(n_per_class: int, length: int):
    return GunPointGenerator(length=length, seed=7).generate(
        n_per_class=n_per_class, seed=7
    )


def _best_of(function, repeats: int = 3):
    """Smallest wall-clock time over ``repeats`` runs (robust to CI jitter)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bench_ects_fit_speedup(run_once, bench_metrics, interleaved_medians):
    """Full ECTS ``checkpoint_step=1`` fit: vectorised kernels vs the reference loops."""
    train = _gunpoint(ECTS_N_PER_CLASS, ECTS_LENGTH)

    def reference_fits():
        for _ in range(ECTS_FITS_PER_SIDE):
            fitted = ects_fit_reference(
                ECTSClassifier(checkpoint_step=1), train.series, train.labels
            )
        return fitted

    def vectorised_fits():
        for _ in range(ECTS_FITS_PER_SIDE):
            fitted = ECTSClassifier(checkpoint_step=1).fit(train.series, train.labels)
        return fitted

    ref_seconds, new_seconds, reference, fitted = interleaved_medians(
        reference_fits, vectorised_fits, pairs=5
    )
    ref_seconds /= ECTS_FITS_PER_SIDE
    new_seconds /= ECTS_FITS_PER_SIDE
    run_once(
        lambda: ECTSClassifier(checkpoint_step=1).fit(train.series, train.labels)
    )

    # Exact equivalence first: integer MPLs and supports must match the
    # frozenset-and-loop reference bit for bit.
    assert np.array_equal(fitted.mpl_, reference.mpl_)
    assert np.array_equal(fitted.support_, reference.support_)

    speedup = ref_seconds / new_seconds
    bench_metrics.update(
        speedup=speedup, reference_seconds=ref_seconds, vectorised_seconds=new_seconds
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x on a "
        f"{train.series.shape[0]}-exemplar length-{ECTS_LENGTH} "
        f"checkpoint_step=1 ECTS fit, measured {speedup:.1f}x "
        f"(reference {ref_seconds * 1e3:.1f} ms, vectorised "
        f"{new_seconds * 1e3:.1f} ms per fit; medians of 5 interleaved pairs "
        f"of {ECTS_FITS_PER_SIDE} fits)"
    )


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


def test_bench_edsc_candidate_mining_speedup(run_once, interleaved_medians):
    """EDSC threshold learning + scoring across all candidates of one length.

    This is exactly the stage the batched pipeline replaced: the reference
    learns a threshold and scores candidates one Python iteration at a time
    over the shared ``(n_candidates, n_series)`` best-match distance matrix.
    The candidate grid is left uncapped so the stage covers every extracted
    candidate at Table 1 scale.
    """
    train = _gunpoint(TABLE1_N_PER_CLASS, TABLE1_LENGTH)
    data, labels = train.series, train.labels
    length = data.shape[1]
    model = EDSCClassifier(threshold_method="che", max_candidates_per_class=10_000)
    window = max(3, int(round(0.15 * length)))

    matrix, cand_labels, src_index, src_position = model._extract_candidates(
        data, labels, window, np.random.default_rng(model.random_state)
    )
    distances, match_ends = _best_match_distances(matrix, data)

    def reference_stage():
        shapelets = []
        for row in range(matrix.shape[0]):
            target_mask = labels == cand_labels[row]
            threshold = learn_threshold(
                model, distances[row], target_mask, exclude=src_index[row]
            )
            if threshold is None or threshold <= 0:
                continue
            shapelet = score_candidate(
                model,
                values=matrix[row],
                label=cand_labels[row],
                threshold=threshold,
                distances=distances[row],
                match_ends=match_ends[row],
                target_mask=target_mask,
                series_length=length,
                source_index=src_index[row],
                source_position=src_position[row],
            )
            if shapelet is not None:
                shapelets.append(shapelet)
        return shapelets

    def batched_stage():
        thresholds = model._learn_thresholds_batch(
            distances, cand_labels, src_index, labels
        )
        return model._score_candidates_batch(
            matrix,
            cand_labels,
            thresholds,
            distances,
            match_ends,
            labels,
            length,
            src_index,
            src_position,
        )

    ref_seconds, new_seconds, reference, batched = interleaved_medians(
        reference_stage, batched_stage
    )
    run_once(batched_stage)

    assert [_shapelet_key(s) for s in batched] == [
        _shapelet_key(s) for s in reference
    ]

    speedup = ref_seconds / new_seconds
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP:.0f}x on threshold learning + scoring "
        f"of {matrix.shape[0]} Table 1 scale EDSC candidates, measured "
        f"{speedup:.1f}x (reference {ref_seconds * 1e3:.1f} ms, batched "
        f"{new_seconds * 1e3:.1f} ms, medians of 5 interleaved pairs)"
    )


@pytest.mark.parametrize("method", ["che", "kde"])
def test_bench_edsc_fit_equivalence_and_no_regression(
    run_once, bench_metrics, monkeypatch, method
):
    """Full EDSC fit at Table 1 scale, both threshold methods: identical shapelets, no slowdown.

    The full EDSC-CHE fit is dominated by the (already vectorised,
    bit-for-bit shared) best-match distance kernel, so the headline >= 5x
    gate lives on the mining stage above; here the end-to-end fit must
    reproduce the reference selection exactly and must not be slower than
    it.  The record
    carries both fit times and the best-match kernel's throughput in
    (candidate, series, window) cells per second, timed inside one more fit.
    """
    train = _gunpoint(TABLE1_N_PER_CLASS, TABLE1_LENGTH)

    ref_seconds, reference = _best_of(
        lambda: fit_reference(
            EDSCClassifier(threshold_method=method), train.series, train.labels
        )
    )
    new_seconds, fitted = _best_of(
        lambda: EDSCClassifier(threshold_method=method).fit(
            train.series, train.labels
        )
    )
    run_once(
        lambda: EDSCClassifier(threshold_method=method).fit(
            train.series, train.labels
        )
    )

    kernel_seconds = 0.0
    cells = 0

    def timed_kernel(candidates, series):
        nonlocal kernel_seconds, cells
        started = time.perf_counter()
        result = _best_match_distances(candidates, series)
        kernel_seconds += time.perf_counter() - started
        n_windows = series.shape[1] - candidates.shape[1] + 1
        cells += candidates.shape[0] * series.shape[0] * n_windows
        return result

    with monkeypatch.context() as patch:
        patch.setattr(edsc_module, "_best_match_distances", timed_kernel)
        EDSCClassifier(threshold_method=method).fit(train.series, train.labels)

    assert [_shapelet_key(s) for s in fitted.shapelets_] == [
        _shapelet_key(s) for s in reference.shapelets_
    ]
    bench_metrics.update(
        n_series=train.series.shape[0],
        series_length=train.series.shape[1],
        fit_s=new_seconds,
        reference_fit_s=ref_seconds,
        best_match_cells=cells,
        best_match_s=kernel_seconds,
        best_match_cells_per_s=cells / kernel_seconds,
    )
    assert new_seconds <= ref_seconds, (
        f"batched EDSC fit regressed: reference {ref_seconds * 1e3:.1f} ms, "
        f"batched {new_seconds * 1e3:.1f} ms"
    )


def _reference_kde_thresholds(model, distances, target_mask, source_index, _non_target):
    """The oracle's threshold of each candidate row, ``None`` as ``NaN``.

    Takes the arguments of ``_kde_thresholds_batch``; the oracle reads the
    non-target distances off ``distances`` itself.
    """
    out = np.full(distances.shape[0], np.nan)
    for row in range(distances.shape[0]):
        threshold = learn_threshold(
            model, distances[row], target_mask, exclude=source_index[row]
        )
        if threshold is not None:
            out[row] = threshold
    return out


def test_bench_edsc_kde_threshold_search(
    run_once, bench_metrics, monkeypatch, interleaved_medians
):
    """The coarse-to-fine KDE threshold search on the calls of one Table 1 fit.

    Records the 8 ``_kde_thresholds_batch`` calls (4 window lengths x 2
    classes) of one full-setting EDSC-KDE fit on Table 1's GunPoint training
    split, replays them, and asserts the thresholds equal the per-candidate
    oracle bit for bit.  ``ndtr`` evaluations are counted by wrapping the
    module's CDF; the gate is on their share of the full grid's
    ``rows x 200 x samples``, which is deterministic.  The record also
    carries the time of the search and of the per-candidate oracle.
    """
    train = table1.prepare().train
    model = EDSCClassifier(threshold_method="kde")
    calls = []
    search = EDSCClassifier._kde_thresholds_batch

    def recording(self, *args):
        calls.append(args)
        return search(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(EDSCClassifier, "_kde_thresholds_batch", recording)
        model.fit(train.series, train.labels)
    assert len(calls) == 8

    evaluations = 0
    cdf = edsc_module._standard_normal_cdf

    def counting(z):
        nonlocal evaluations
        evaluations += z.size
        return cdf(z)

    with monkeypatch.context() as patch:
        patch.setattr(edsc_module, "_standard_normal_cdf", counting)
        found = [model._kde_thresholds_batch(*args) for args in calls]
    full_grid = sum(
        distances.shape[0] * 200 * (int(target_mask.sum()) - 1 + non_target.shape[1])
        for distances, target_mask, _, non_target in calls
    )

    def replay():
        return [model._kde_thresholds_batch(*args) for args in calls]

    def reference():
        return [_reference_kde_thresholds(model, *args) for args in calls]

    reference_seconds, search_seconds, expected, _ = interleaved_medians(
        reference, replay, pairs=3
    )
    run_once(replay)

    for got, want in zip(found, expected):
        # The fit rejects non-positive thresholds, as the oracle does.
        got = np.where(got > 0, got, np.nan)
        assert np.array_equal(got, want, equal_nan=True)

    share = evaluations / full_grid
    bench_metrics.update(
        n_calls=len(calls),
        n_candidates=sum(args[0].shape[0] for args in calls),
        ndtr_evaluations=evaluations,
        full_grid_evaluations=full_grid,
        grid_share=share,
        search_s=search_seconds,
        reference_s=reference_seconds,
    )
    assert share <= MAX_KDE_GRID_SHARE, (
        f"the KDE search evaluated {share:.3f} of the full grid "
        f"({evaluations} of {full_grid} ndtr calls), allowed {MAX_KDE_GRID_SHARE}"
    )
