"""EDSC oracles: the per-candidate mining loop and its threshold learners.

* :func:`fit_reference` fits an :class:`EDSCClassifier` through
  :func:`evaluate_candidates_of_length_reference`, the per-candidate Python
  loop the batched mining pipeline replaced.  ``EDSCClassifier.fit`` must
  select identical shapelets.
* :func:`kde_threshold` reads one candidate's KDE threshold off all 200
  points of its ``linspace`` grid (:func:`kde_curve`).  The coarse-to-fine
  search in ``EDSCClassifier._kde_thresholds_batch`` must return the same
  value bit for bit (``NaN`` where this returns ``None``).

Each function takes the model in place of ``self``.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.classifiers.edsc import (
    EDSCClassifier,
    Shapelet,
    _best_match_distances,
    _standard_normal_cdf,
)


def fit_reference(
    model: EDSCClassifier, series: np.ndarray, labels: Sequence
) -> EDSCClassifier:
    """Fit ``model`` through the per-candidate reference loop."""
    return model._fit_impl(
        series, labels, partial(evaluate_candidates_of_length_reference, model)
    )


def evaluate_candidates_of_length_reference(
    model: EDSCClassifier,
    data: np.ndarray,
    labels: np.ndarray,
    window: int,
    rng: np.random.Generator,
) -> list[Shapelet]:
    """Extract, threshold and score all candidates of one length (reference loop).

    The per-candidate Python loop the batched pipeline replaced, kept
    verbatim (together with :func:`learn_threshold` and
    :func:`score_candidate`) as the semantic reference the equivalence
    tests and the fit benchmark run against.
    """
    n_series, length = data.shape[0], data.shape[1]
    positions = model._candidate_positions(length, window)

    candidate_values = []
    candidate_sources = []
    for index in range(n_series):
        for pos in positions:
            candidate_values.append(data[index, pos : pos + window])
            candidate_sources.append((index, int(pos)))
    candidate_matrix = np.asarray(candidate_values)
    candidate_labels = np.asarray([labels[i] for i, _ in candidate_sources])

    if model.prune_candidates:
        mask = model._extrema_keep_mask(
            data,
            np.asarray([i for i, _ in candidate_sources]),
            np.asarray([p for _, p in candidate_sources]),
            window,
        )
        candidate_matrix = candidate_matrix[mask]
        candidate_sources = [
            source for source, kept in zip(candidate_sources, mask) if kept
        ]
        candidate_labels = candidate_labels[mask]

    # Subsample per class to keep the quadratic matching step bounded.
    keep: list[int] = []
    for cls in np.unique(labels):
        cls_idx = np.flatnonzero(candidate_labels == cls)
        if cls_idx.shape[0] > model.max_candidates_per_class:
            cls_idx = rng.choice(cls_idx, size=model.max_candidates_per_class, replace=False)
        keep.extend(cls_idx.tolist())
    keep_arr = np.asarray(sorted(keep), dtype=np.intp)
    candidate_matrix = candidate_matrix[keep_arr]
    candidate_sources = [candidate_sources[i] for i in keep_arr]
    candidate_labels = candidate_labels[keep_arr]

    if candidate_matrix.shape[0] == 0:
        return []
    distances, match_ends = _best_match_distances(candidate_matrix, data)

    shapelets: list[Shapelet] = []
    for row in range(candidate_matrix.shape[0]):
        label = candidate_labels[row]
        source_index, source_position = candidate_sources[row]
        target_mask = labels == label
        threshold = learn_threshold(
            model, distances[row], target_mask, exclude=source_index
        )
        if threshold is None or threshold <= 0:
            continue
        shapelet = score_candidate(
            model,
            values=candidate_matrix[row],
            label=label,
            threshold=threshold,
            distances=distances[row],
            match_ends=match_ends[row],
            target_mask=target_mask,
            series_length=length,
            source_index=source_index,
            source_position=source_position,
        )
        if shapelet is not None:
            shapelets.append(shapelet)
    return shapelets


def learn_threshold(
    model: EDSCClassifier, distances: np.ndarray, target_mask: np.ndarray, exclude: int
) -> float | None:
    """Learn the matching threshold for one candidate."""
    non_target = distances[~target_mask]
    if non_target.shape[0] < 2:
        return None
    if model.threshold_method == "che":
        return chebyshev_threshold(model, non_target)
    target = np.delete(distances[target_mask], index_within(target_mask, exclude))
    if target.shape[0] < 1:
        return None
    return kde_threshold(model, target, non_target)


def chebyshev_threshold(model: EDSCClassifier, non_target: np.ndarray) -> float | None:
    mean = float(np.mean(non_target))
    std = float(np.std(non_target))
    threshold = mean - model.chebyshev_k * std
    return threshold if threshold > 0 else None


def kde_curve(
    target: np.ndarray, non_target: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """``(grid, T, N, precision)`` of one candidate at all 200 grid points.

    ``T`` and ``N`` are the target and non-target KDE CDFs scaled by their
    sample counts; ``None`` when the pooled distances do not vary.
    """
    pooled = np.concatenate([target, non_target])
    spread = float(np.std(pooled))
    if spread <= 0:
        return None
    # Silverman's rule of thumb for the bandwidth.
    bandwidth = 1.06 * spread * pooled.shape[0] ** (-1 / 5)
    bandwidth = max(bandwidth, 1e-6)
    grid = np.linspace(0.0, float(np.max(pooled)), 200)

    def cumulative(samples: np.ndarray) -> np.ndarray:
        """P(X <= g) on the grid under a Gaussian KDE built on ``samples``."""
        z = (grid[:, None] - samples[None, :]) / bandwidth
        return np.mean(_standard_normal_cdf(z), axis=1)

    target_cdf = cumulative(target) * target.shape[0]
    non_target_cdf = cumulative(non_target) * non_target.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(
            target_cdf + non_target_cdf > 0,
            target_cdf / (target_cdf + non_target_cdf),
            1.0,
        )
    return grid, target_cdf, non_target_cdf, precision


def kde_threshold(
    model: EDSCClassifier, target: np.ndarray, non_target: np.ndarray
) -> float | None:
    """Largest threshold at which the KDE-estimated precision stays high."""
    curve = kde_curve(target, non_target)
    if curve is None:
        return None
    grid, _, _, precision = curve
    acceptable = np.flatnonzero(precision >= model.target_precision)
    if acceptable.shape[0] == 0:
        return None
    threshold = float(grid[acceptable[-1]])
    return threshold if threshold > 0 else None


def score_candidate(
    model: EDSCClassifier,
    values: np.ndarray,
    label,
    threshold: float,
    distances: np.ndarray,
    match_ends: np.ndarray,
    target_mask: np.ndarray,
    series_length: int,
    source_index: int,
    source_position: int,
) -> Shapelet | None:
    matched = distances <= threshold
    matched_target = matched & target_mask
    matched_non_target = matched & ~target_mask
    n_matched = int(np.sum(matched))
    if n_matched == 0:
        return None
    precision = float(np.sum(matched_target)) / n_matched
    if precision < model.target_precision:
        return None
    # Earliness-weighted recall: matches that complete earlier in the
    # exemplar are worth more (this is what makes a shapelet "early").
    earliness_weights = 1.0 - (match_ends[matched_target] - 1) / series_length
    recall = float(np.sum(earliness_weights)) / max(int(np.sum(target_mask)), 1)
    utility = precision * recall
    if np.sum(matched_non_target) > 0 and precision < 1.0:
        utility *= precision
    return Shapelet(
        values=np.array(values, copy=True),
        label=label,
        threshold=float(threshold),
        utility=float(utility),
        precision=precision,
        source_index=int(source_index),
        source_position=int(source_position),
    )


def index_within(mask: np.ndarray, absolute_index: int) -> int | list[int]:
    """Position of ``absolute_index`` within ``np.flatnonzero(mask)`` (or [] if absent)."""
    positions = np.flatnonzero(mask)
    found = np.flatnonzero(positions == absolute_index)
    return int(found[0]) if found.shape[0] else []
