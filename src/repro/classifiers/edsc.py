"""EDSC -- Early Distinctive Shapelet Classification (Xing et al., SDM 2011).

EDSC extracts *local shapelets*: short subsequences of training exemplars
that, when matched within a learned distance threshold, identify a class with
high precision.  Because a shapelet can match inside a short prefix of an
incoming exemplar, matching one is a licence to classify early.

Training has three stages:

1. **Candidate extraction** -- subsequences of several lengths are sampled
   from every training exemplar.
2. **Threshold learning** -- each candidate learns the largest distance
   threshold that keeps its precision high.  Two estimators are implemented,
   matching the two rows of Table 1:

   * ``"che"`` -- the Chebyshev bound: the threshold is placed ``k`` standard
     deviations below the mean distance to non-target exemplars, so the
     one-sided Chebyshev inequality bounds the false-match probability by
     ``1 / (1 + k^2)``.
   * ``"kde"`` -- kernel density estimates of the distance distributions of
     target and non-target exemplars; the threshold is the largest of 200
     grid values at which the estimated precision stays above
     ``target_precision``.  An exact coarse-to-fine search finds it: every
     8th grid point first, then only the gaps whose precision bound can
     still reach the target.

3. **Selection** -- candidates are ranked by a utility that combines
   precision, recall and earliness (how early in the exemplar the match
   happens), and greedily selected until every training exemplar is covered.

Prediction needs one number per selected shapelet and exemplar: the prefix
length at which the shapelet first matches, i.e. the end of the first window
within its threshold.  A prefix triggers once any shapelet has matched inside
it, and the matched shapelet of highest utility decides the class.

Simplifications relative to the original publication: candidates are
subsampled rather than exhaustively enumerated, and the utility function is
the product of precision and earliness-weighted recall rather than the
paper's weighted-recall family -- neither changes the qualitative behaviour
Table 1 exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, BatchCheckpoint, PartialPrediction

__all__ = ["EDSCClassifier", "Shapelet"]

#: Byte budget for the ``(points, samples)`` z-score block of the KDE
#: threshold search; grid points are evaluated in chunks that respect it.
_KDE_BLOCK_BYTES = 64 * 2**20

#: The KDE threshold search first evaluates every ``_KDE_COARSE_STRIDE``-th
#: grid point plus the last one.
_KDE_COARSE_STRIDE = 8

#: A gap between evaluated KDE grid points is refined when its precision
#: bound reaches ``target_precision`` less this slack, because ``ndtr`` is
#: monotone only to a few ulps (see ``_kde_thresholds_batch``).
_KDE_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Shapelet:
    """A selected local shapelet.

    Attributes
    ----------
    values:
        The subsequence itself (raw values, as EDSC matches without
        re-normalisation).
    label:
        The class the shapelet votes for.
    threshold:
        Maximum best-match distance at which the shapelet fires.
    utility:
        Training utility used for ranking.
    precision:
        Training precision of the shapelet at its threshold.
    source_index:
        Index of the training exemplar the shapelet was extracted from.
    source_position:
        Start position of the shapelet within that exemplar.
    """

    values: np.ndarray
    label: object
    threshold: float
    utility: float
    precision: float
    source_index: int
    source_position: int

    @property
    def length(self) -> int:
        """Number of samples in the shapelet."""
        return int(self.values.shape[0])


def _sliding_windows(series: np.ndarray, window: int) -> np.ndarray:
    """All length-``window`` subsequences of each row of a series batch.

    Returns ``(n_series, n_windows, window)`` for a 2-D ``(n_series,
    length)`` batch, or ``(n_series, n_windows, window, n_channels)`` for a
    3-D ``(n_series, length, n_channels)`` multichannel batch (the window
    slides along time; channels ride along).
    """
    n_series, length = series.shape[0], series.shape[1]
    n_windows = length - window + 1
    strides = (
        series.strides[0],
        series.strides[1],
        series.strides[1],
    ) + series.strides[2:]
    return np.lib.stride_tricks.as_strided(
        series,
        shape=(n_series, n_windows, window) + series.shape[2:],
        strides=strides,
        writeable=False,
    )


def _best_match_distances(
    candidates: np.ndarray, series: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-match (minimum sliding Euclidean) distance of each candidate to each series.

    Parameters
    ----------
    candidates:
        Array of shape ``(n_candidates, window)`` or, multichannel,
        ``(n_candidates, window, n_channels)``.
    series:
        Array of shape ``(n_series, length)`` (or ``(n_series, length,
        n_channels)`` with matching channel count) with ``length >= window``.

    Returns
    -------
    (distances, positions):
        ``distances[i, j]`` is the smallest (channel-summed) Euclidean
        distance between candidate ``i`` and any window of series ``j``;
        ``positions[i, j]`` is the index at which that window *ends* (the
        earliest point at which the match could have been observed on
        streaming data).
    """
    window = candidates.shape[1]
    windows = _sliding_windows(series, window)
    n_series, n_windows = windows.shape[0], windows.shape[1]
    # The channel-summed window distance equals the flat distance over the
    # time-major (window, channel) flattening, so multichannel candidates
    # reuse the univariate GEMM path after a reshape (a no-op for 2-D).
    cand_flat = candidates.reshape(candidates.shape[0], -1)
    flat = np.ascontiguousarray(windows).reshape(n_series * n_windows, -1)

    cand_sq = np.sum(cand_flat * cand_flat, axis=1)[:, None]
    win_sq = np.sum(flat * flat, axis=1)[None, :]
    # Two full-size buffers: the GEMM output, doubled in place (exact), and
    # the squared distances, clamped and rooted in place.  The grouping
    # (cand_sq + win_sq) - 2 * cross must not change: the learned thresholds,
    # and so the selected shapelets, depend on its last bits.
    cross = cand_flat @ flat.T
    cross *= 2.0
    distances = np.add(cand_sq, win_sq)
    distances -= cross
    np.maximum(distances, 0.0, out=distances)
    np.sqrt(distances, out=distances)
    distances = distances.reshape(candidates.shape[0], n_series, n_windows)

    best_positions = np.argmin(distances, axis=2)
    best = np.take_along_axis(distances, best_positions[:, :, None], axis=2)[:, :, 0]
    # Convert a start position into the sample index at which the whole
    # shapelet has been observed.
    return best, best_positions + window


class EDSCClassifier(BaseEarlyClassifier):
    """Early Distinctive Shapelet Classification.

    Parameters
    ----------
    threshold_method:
        ``"che"`` (Chebyshev bound) or ``"kde"`` (kernel density estimate).
    chebyshev_k:
        The ``k`` of the Chebyshev bound (the original recommends 3).
    target_precision:
        Precision the KDE threshold must maintain (also used as the minimum
        training precision a shapelet of either method must reach to be kept).
    shapelet_length_fractions:
        Candidate shapelet lengths, as fractions of the exemplar length.
    position_step:
        Stride between candidate start positions.
    max_candidates_per_class:
        Random subsample cap on candidates per class (keeps training time
        laptop-scale).
    min_length:
        Smallest prefix length at which prediction is attempted.
    random_state:
        Seed of the candidate subsampler.
    """

    def __init__(
        self,
        threshold_method: str = "che",
        chebyshev_k: float = 3.0,
        target_precision: float = 0.9,
        shapelet_length_fractions: Sequence[float] = (0.1, 0.15, 0.2, 0.3),
        position_step: int = 4,
        max_candidates_per_class: int = 300,
        min_length: int = 5,
        random_state: int = 13,
    ) -> None:
        super().__init__()
        method = threshold_method.lower()
        if method not in ("che", "kde"):
            raise ValueError("threshold_method must be 'che' or 'kde'")
        if chebyshev_k <= 0:
            raise ValueError("chebyshev_k must be positive")
        if not 0.5 <= target_precision <= 1.0:
            raise ValueError("target_precision must be in [0.5, 1.0]")
        if not shapelet_length_fractions:
            raise ValueError("need at least one shapelet length fraction")
        if any(not 0.0 < f <= 1.0 for f in shapelet_length_fractions):
            raise ValueError("shapelet length fractions must be in (0, 1]")
        if position_step < 1:
            raise ValueError("position_step must be >= 1")
        if max_candidates_per_class < 1:
            raise ValueError("max_candidates_per_class must be >= 1")
        self.threshold_method = method
        self.chebyshev_k = chebyshev_k
        self.target_precision = target_precision
        self.shapelet_length_fractions = tuple(shapelet_length_fractions)
        self.position_step = position_step
        self.max_candidates_per_class = max_candidates_per_class
        self.min_length = min_length
        self.random_state = random_state
        self.shapelets_: list[Shapelet] = []
        self._fallback_label = None

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "EDSCClassifier":
        """Mine discriminative shapelets and select per-shapelet distance thresholds."""
        return self._fit_impl(series, labels, self._evaluate_candidates_of_length)

    def _fit_impl(self, series: np.ndarray, labels: Sequence, evaluate) -> "EDSCClassifier":
        """Fit with ``evaluate`` mining each candidate length.

        ``tests/oracles/edsc.py`` passes its per-candidate reference loop
        here, so both paths share validation, lengths and selection.
        """
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        rng = np.random.default_rng(self.random_state)
        length = data.shape[1]

        shapelet_lengths = sorted(
            {max(3, int(round(f * length))) for f in self.shapelet_length_fractions}
        )
        shapelet_lengths = [m for m in shapelet_lengths if m < length]
        if not shapelet_lengths:
            raise ValueError("all candidate shapelet lengths are >= the series length")

        candidates: list[Shapelet] = []
        for window in shapelet_lengths:
            candidates.extend(evaluate(data, label_arr, window, rng))
        if not candidates:
            raise RuntimeError(
                "no shapelet reached the target precision; the training data may "
                "be too small or too noisy for EDSC"
            )
        self.shapelets_ = self._select_shapelets(candidates, data, label_arr)
        # Fall back to the majority class when no shapelet ever matches.
        values, counts = np.unique(label_arr, return_counts=True)
        self._fallback_label = values[int(np.argmax(counts))]
        return self

    def _candidate_positions(self, length: int, window: int) -> np.ndarray:
        return np.arange(0, length - window + 1, self.position_step)

    def _evaluate_candidates_of_length(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        window: int,
        rng: np.random.Generator,
    ) -> list[Shapelet]:
        """Extract, threshold and score all candidates of one length -- batched.

        The vectorised counterpart of the per-candidate reference loop in
        ``tests/oracles/edsc.py``: candidates come out
        of one :func:`numpy.lib.stride_tricks.sliding_window_view`, and
        threshold learning / scoring run across the whole
        ``(n_candidates, n_series)`` best-match distance matrix at once
        instead of one Python iteration per candidate.  The random
        subsampling consumes the generator identically to the reference
        (same per-class draws in the same order), so a fixed seed selects
        identical candidates, and the training-kernel equivalence tests pin
        the resulting shapelets against the reference loop.
        """
        length = data.shape[1]
        matrix, cand_labels, src_index, src_position = self._extract_candidates(
            data, labels, window, rng
        )
        distances, match_ends = _best_match_distances(matrix, data)
        thresholds = self._learn_thresholds_batch(
            distances, cand_labels, src_index, labels
        )
        return self._score_candidates_batch(
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

    def _extract_candidates(
        self,
        data: np.ndarray,
        labels: np.ndarray,
        window: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All subsampled candidates of one window length, in exemplar-major order.

        Returns ``(matrix, labels, source_index, source_position)`` with the
        candidate ordering of the reference loop (outer loop over exemplars,
        inner over start positions) so the per-class subsample draws the same
        indices from the same generator state.
        """
        n_series, length = data.shape[0], data.shape[1]
        positions = self._candidate_positions(length, window)
        windows = np.lib.stride_tricks.sliding_window_view(data, window, axis=1)
        if data.ndim == 3:
            # sliding_window_view appends the window axis last:
            # (n, n_windows, d, window) -> (n, n_windows, window, d).
            windows = np.moveaxis(windows, -1, -2)
        matrix = windows[:, positions].reshape(
            (n_series * positions.shape[0], window) + data.shape[2:]
        )
        src_index = np.repeat(np.arange(n_series), positions.shape[0])
        src_position = np.tile(positions, n_series)
        cand_labels = labels[src_index]

        # Subsample per class to keep the quadratic matching step bounded.
        keep: list[int] = []
        for cls in np.unique(labels):
            cls_idx = np.flatnonzero(cand_labels == cls)
            if cls_idx.shape[0] > self.max_candidates_per_class:
                cls_idx = rng.choice(cls_idx, size=self.max_candidates_per_class, replace=False)
            keep.extend(cls_idx.tolist())
        keep_arr = np.asarray(sorted(keep), dtype=np.intp)
        return (
            matrix[keep_arr],
            cand_labels[keep_arr],
            src_index[keep_arr],
            src_position[keep_arr],
        )

    def _learn_thresholds_batch(
        self,
        distances: np.ndarray,
        candidate_labels: np.ndarray,
        source_index: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        """Matching thresholds of every candidate in one pass per class.

        Candidates of one class share their target/non-target split, so the
        per-candidate Chebyshev statistics (or KDE precision curves) reduce
        along the candidate axis of the class's distance-matrix slice.
        Rejected candidates (too few non-targets, non-positive threshold, KDE
        precision never acceptable) carry ``NaN``.
        """
        thresholds = np.full(distances.shape[0], np.nan)
        for cls in np.unique(candidate_labels):
            rows = np.flatnonzero(candidate_labels == cls)
            target_mask = labels == cls
            non_target = distances[np.ix_(rows, np.flatnonzero(~target_mask))]
            if non_target.shape[1] < 2:
                continue
            if self.threshold_method == "che":
                values = np.mean(non_target, axis=1) - self.chebyshev_k * np.std(
                    non_target, axis=1
                )
            else:
                values = self._kde_thresholds_batch(
                    distances[rows], target_mask, source_index[rows], non_target
                )
            thresholds[rows] = values
        # A non-positive threshold can never fire; reject exactly like the
        # per-candidate reference does.
        thresholds[~(thresholds > 0)] = np.nan
        return thresholds

    def _kde_thresholds_batch(
        self,
        distances: np.ndarray,
        target_mask: np.ndarray,
        source_index: np.ndarray,
        non_target: np.ndarray,
    ) -> np.ndarray:
        """KDE thresholds of all candidates of one class, by an exact grid search.

        Per candidate, the target distances (minus the source exemplar's own)
        and the non-target distances each get a Gaussian KDE.  The threshold
        is the highest of 200 grid values ``linspace(0, max, 200)`` at which
        the estimated precision ``T / (T + N)`` reaches ``target_precision``,
        where ``T`` and ``N`` are the two KDE CDFs scaled by their sample
        counts (``0 / 0`` counts as 1).

        Instead of all 200 points, the search evaluates every
        ``_KDE_COARSE_STRIDE``-th point plus the last, then refines only the
        gaps between them that can hold the answer.  ``T`` and ``N`` are
        non-decreasing along the grid, so no point strictly between
        evaluated points ``a < b`` has precision above
        ``T(b) / (T(b) + N(a))``.  A gap is refined only if it lies above the
        row's highest coarse hit and that bound reaches the target less
        ``_KDE_BOUND_SLACK``, or if ``T(b) + N(a)`` is below the smallest
        normal float.  The slack is needed because
        :func:`scipy.special.ndtr` is monotone only to a few ulps, so a
        computed CDF can dip between grid points (by about 1e-14 relative
        for normal sums).  The refinement runs top down and vectorised over
        rows: each round evaluates the interior of every unresolved row's
        highest open gap; the highest acceptable point there is the row's
        answer, otherwise the gap is closed.  A row whose open gaps all miss
        keeps its highest coarse hit.

        Every evaluated point repeats the full grid's arithmetic (the grid
        value ``k * (max / 199)`` with the endpoint pinned to ``max``, one
        ``ndtr`` per sample, a mean over the contiguous samples axis), so
        the thresholds are bit-identical to reading all 200 points, which the
        per-candidate oracle in ``tests/oracles/edsc.py`` does.  Rows without
        an acceptable point, or whose distances do not vary, carry ``NaN``.
        """
        n_rows = distances.shape[0]
        target_cols = np.flatnonzero(target_mask)
        n_target = target_cols.shape[0] - 1
        if n_target < 1:
            return np.full(n_rows, np.nan)
        # Drop each candidate's source exemplar from its own target sample.
        target_full = distances[:, target_cols]
        keep = np.ones(target_full.shape, dtype=bool)
        keep[np.arange(n_rows), np.searchsorted(target_cols, source_index)] = False
        target = target_full[keep].reshape(n_rows, n_target)

        pooled = np.concatenate([target, non_target], axis=1)
        spread = np.std(pooled, axis=1)
        # Silverman's rule of thumb for the bandwidth.
        bandwidth = np.maximum(
            1.06 * spread * pooled.shape[1] ** (-1 / 5), 1e-6
        )
        top = np.max(pooled, axis=1)
        step = top / 199.0

        def grid_value(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
            return np.where(k == 199, top[rows], k * step[rows])

        def evaluate(rows: np.ndarray, k: np.ndarray):
            """``T``, ``N`` and whether the precision is acceptable, per point."""
            grid = grid_value(rows, k)
            t = _kde_mass(target, bandwidth, rows, grid)
            n = _kde_mass(non_target, bandwidth, rows, grid)
            with np.errstate(divide="ignore", invalid="ignore"):
                precision = np.where(t + n > 0, t / (t + n), 1.0)
            return t, n, precision >= self.target_precision

        coarse = np.append(np.arange(0, 199, _KDE_COARSE_STRIDE), 199)
        n_gaps = coarse.shape[0] - 1
        t, n, ok = (
            values.reshape(n_rows, coarse.shape[0])
            for values in evaluate(
                np.repeat(np.arange(n_rows), coarse.shape[0]), np.tile(coarse, n_rows)
            )
        )
        # Index into ``coarse`` of each row's highest acceptable point, or -1.
        best = np.where(
            ok.any(axis=1), n_gaps - np.argmax(ok[:, ::-1], axis=1), -1
        )
        answer = np.where(best >= 0, coarse[best], -1)
        # Gap j lies between coarse[j] and coarse[j + 1].
        denominator = t[:, 1:] + n[:, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = t[:, 1:] / denominator
        open_gaps = (
            (np.arange(n_gaps) >= best[:, None])
            & (spread > 0)[:, None]
            & (
                (bound >= self.target_precision - _KDE_BOUND_SLACK)
                | (denominator < np.finfo(float).tiny)
            )
        )
        offsets = np.arange(1, _KDE_COARSE_STRIDE)
        pending = np.flatnonzero(open_gaps.any(axis=1))
        while pending.size:
            gap = n_gaps - 1 - np.argmax(open_gaps[pending, ::-1], axis=1)
            k = coarse[gap][:, None] + offsets
            inside = k < coarse[gap + 1][:, None]
            hit = np.zeros(k.shape, dtype=bool)
            hit[inside] = evaluate(
                np.broadcast_to(pending[:, None], k.shape)[inside], k[inside]
            )[2]
            found = hit.any(axis=1)
            highest = k.shape[1] - 1 - np.argmax(hit[:, ::-1], axis=1)
            answer[pending[found]] = k[found, highest[found]]
            open_gaps[pending, gap] = False
            pending = pending[~found & open_gaps[pending].any(axis=1)]
        return np.where(
            (answer >= 0) & (spread > 0), grid_value(np.arange(n_rows), answer), np.nan
        )

    def _score_candidates_batch(
        self,
        matrix: np.ndarray,
        candidate_labels: np.ndarray,
        thresholds: np.ndarray,
        distances: np.ndarray,
        match_ends: np.ndarray,
        labels: np.ndarray,
        series_length: int,
        source_index: np.ndarray,
        source_position: np.ndarray,
    ) -> list[Shapelet]:
        """Precision / earliness-weighted recall / utility across all candidates.

        The match matrices, per-candidate counts and precisions reduce across
        the whole ``(n_candidates, n_series)`` distance matrix at once; only
        the earliness-weighted recall of the (much rarer) *surviving*
        candidates is summed per row, over the compacted matched entries,
        because a padded whole-row sum groups NumPy's pairwise summation
        differently and drifts from the reference loop's per-candidate
        scoring (``tests/oracles/edsc.py``) by one ulp --
        enough to break exact utility ties and reorder the greedy selection.
        """
        matched = distances <= thresholds[:, None]
        target = labels[None, :] == candidate_labels[:, None]
        matched_target = matched & target
        n_matched = matched.sum(axis=1)
        n_matched_target = matched_target.sum(axis=1)
        precision = n_matched_target / np.maximum(n_matched, 1)
        n_target = target.sum(axis=1)

        rows = np.flatnonzero(
            (n_matched > 0) & (precision >= self.target_precision)
        )
        # Earliness-weighted recall: matches that complete earlier in the
        # exemplar are worth more (this is what makes a shapelet "early").
        weights = 1.0 - (match_ends - 1) / series_length
        shapelets: list[Shapelet] = []
        for row in rows:
            recall = float(np.sum(weights[row][matched_target[row]])) / max(
                int(n_target[row]), 1
            )
            utility = precision[row] * recall
            if n_matched[row] - n_matched_target[row] > 0 and precision[row] < 1.0:
                utility *= precision[row]
            shapelets.append(
                Shapelet(
                    values=np.array(matrix[row], copy=True),
                    label=candidate_labels[row],
                    threshold=float(thresholds[row]),
                    utility=float(utility),
                    precision=float(precision[row]),
                    source_index=int(source_index[row]),
                    source_position=int(source_position[row]),
                )
            )
        return shapelets

    def _select_shapelets(
        self, candidates: list[Shapelet], data: np.ndarray, labels: np.ndarray
    ) -> list[Shapelet]:
        """Greedy utility-ordered selection until all training exemplars are covered."""
        ranked = sorted(candidates, key=lambda s: s.utility, reverse=True)
        covered = np.zeros(data.shape[0], dtype=bool)
        selected: list[Shapelet] = []
        for shapelet in ranked:
            distances, _ = _best_match_distances(shapelet.values[None, :], data)
            matches = (distances[0] <= shapelet.threshold) & (labels == shapelet.label)
            newly_covered = matches & ~covered
            if not np.any(newly_covered):
                continue
            selected.append(shapelet)
            covered |= matches
            if np.all(covered):
                break
        return selected if selected else ranked[:1]

    # ------------------------------------------------------------ prediction
    def _first_match_lengths(self, data: np.ndarray) -> np.ndarray:
        """Prefix length at which each shapelet first matches each row.

        ``first[k, i]`` is the end index of the first window of row ``i``
        within shapelet ``k``'s threshold, i.e. the shortest prefix of the
        row on which the shapelet fires, or ``data.shape[1] + 1`` when no
        window matches (always so for a shapelet longer than the rows).  Each
        shapelet costs one ``(rows, windows, m[, d])`` reduction, summed per
        window exactly as on a single prefix, so a batch of one row and a
        batch of many agree bit for bit.
        """
        n_rows, length = data.shape[0], data.shape[1]
        never = length + 1
        first = np.full((len(self.shapelets_), n_rows), never, dtype=np.intp)
        for k, shapelet in enumerate(self.shapelets_):
            window = shapelet.length
            if window > length:
                continue
            diffs = _sliding_windows(data, window) - shapelet.values
            sq = np.sum(diffs * diffs, axis=tuple(range(2, diffs.ndim)))
            # sqrt is monotone, so the best match within a prefix is within
            # the threshold exactly when some window of that prefix is.
            hit = np.sqrt(sq) <= shapelet.threshold
            first[k] = np.where(hit.any(axis=1), np.argmax(hit, axis=1) + window, never)
        return first

    def _partial_prediction(self, first: np.ndarray, length: int) -> PartialPrediction:
        """The prediction at prefix ``length`` from one row's first-match lengths.

        Among the shapelets matched by ``length``, the one with the highest
        utility decides; on a utility tie the earliest in ``shapelets_``
        order wins (``argmax`` returns the first maximum).
        """
        fired = np.flatnonzero(first <= length)
        if fired.size == 0:
            uniform = 1.0 / len(self.classes_)
            return PartialPrediction(
                label=self._fallback_label,
                ready=False,
                confidence=uniform,
                prefix_length=length,
                probabilities={cls: uniform for cls in self.classes_},
            )
        utilities = [self.shapelets_[k].utility for k in fired]
        shapelet = self.shapelets_[fired[int(np.argmax(utilities))]]
        confidence = shapelet.precision
        rest = (1.0 - confidence) / (len(self.classes_) - 1)
        return PartialPrediction(
            label=shapelet.label,
            ready=True,
            confidence=confidence,
            prefix_length=length,
            probabilities={
                cls: confidence if cls == shapelet.label else rest
                for cls in self.classes_
            },
        )

    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """Classify a prefix; ready as soon as any learned shapelet matches it."""
        arr = self._validate_prefix(prefix)
        return self._partial_prediction(
            self._first_match_lengths(arr[None])[:, 0], arr.shape[0]
        )

    def _batch_partial_evaluators(self, data: np.ndarray) -> list[BatchCheckpoint]:
        """Checkpoints answered from first-match lengths computed once per batch.

        A row is ready at the first checkpoint at or after its earliest
        match; ``partial`` assembles the decision there exactly as
        :meth:`predict_partial` does.
        """
        first = self._first_match_lengths(data)
        earliest = first.min(axis=0, initial=data.shape[1] + 1)

        def make(length: int) -> BatchCheckpoint:
            return BatchCheckpoint(
                length=length,
                partial=lambda i: self._partial_prediction(first[:, i], length),
                ready=lambda rows: earliest[rows] <= length,
            )

        return [make(length) for length in self.checkpoints() if length <= data.shape[1]]

    def checkpoints(self) -> list[int]:
        """Prefix lengths evaluated at prediction time."""
        self._require_fitted()
        start = max(self.min_length, min((s.length for s in self.shapelets_), default=self.min_length))
        return list(range(start, self.train_length_ + 1))


def _kde_mass(
    samples: np.ndarray, bandwidth: np.ndarray, rows: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """``n * P(X <= grid[i])`` under the Gaussian KDE of ``samples[rows[i]]``.

    ``samples`` is ``(n_rows, n)`` and ``bandwidth`` per row; ``rows`` and
    ``grid`` list the points.  Points are taken in chunks whose
    ``(points, n)`` block stays under ``_KDE_BLOCK_BYTES``; the samples axis
    stays contiguous and last, so each mean sums its ``n`` terms in the
    same order as on the full ``(rows, grid, samples)`` broadcast.
    """
    n_samples = samples.shape[1]
    out = np.empty(rows.shape[0])
    chunk = max(1, _KDE_BLOCK_BYTES // (n_samples * 8))
    for start in range(0, rows.shape[0], chunk):
        part = rows[start : start + chunk]
        z = (grid[start : start + chunk, None] - samples[part]) / bandwidth[part, None]
        out[start : start + chunk] = np.mean(_standard_normal_cdf(z), axis=-1)
    return out * n_samples


def _standard_normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF (thin wrapper so the KDE code reads naturally)."""
    from scipy.special import ndtr

    return ndtr(z)
