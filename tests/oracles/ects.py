"""ECTS oracles: the frozenset-and-loop fit the vectorised kernels replaced.

* :func:`fit_reference` fits an :class:`~repro.classifiers.ects.ECTSClassifier`
  (strict or relaxed) through :func:`neighbour_structures` (one 1-NN index
  vector and one list of frozenset RNN sets per prefix length),
  :func:`compute_mpls_reference` (the per-exemplar reverse walk over those
  lengths) and :func:`compute_support_reference` (a per-exemplar count).
  ``ECTSClassifier.fit`` must give identical MPLs, supports and
  eligibility; ``benchmarks/test_bench_fit.py`` times the vectorised fit
  against this one.

Each function takes the model in place of ``self``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.classifiers.ects import ECTSClassifier
from repro.distance.engine import PrefixDistanceEngine, iter_prefix_distances


def fit_reference(
    model: ECTSClassifier, series: np.ndarray, labels: Sequence
) -> ECTSClassifier:
    """Fit ``model`` through the per-exemplar Python loops."""
    data, label_arr = model._validate_training_data(series, labels)
    model._train = data
    model._labels = label_arr
    model._engine = PrefixDistanceEngine(data)
    model._store_training_shape(data, label_arr)

    lengths = model._mpl_lengths(data.shape[1])
    nn_indices, rnn_sets = neighbour_structures(data, lengths)
    model.mpl_ = compute_mpls_reference(model, label_arr, lengths, nn_indices, rnn_sets)
    model.support_ = compute_support_reference(label_arr, rnn_sets[lengths[-1]])
    model._eligible = model.support_ >= model.min_support
    return model


def nearest_neighbours(distances: np.ndarray) -> np.ndarray:
    """Index of each exemplar's nearest neighbour (diagonal excluded)."""
    masked = distances.copy()
    np.fill_diagonal(masked, np.inf)
    return np.argmin(masked, axis=1)


def neighbour_structures(
    data: np.ndarray, lengths: list[int]
) -> tuple[dict[int, np.ndarray], dict[int, list[frozenset[int]]]]:
    """1-NN indices and RNN sets of every exemplar at every prefix length.

    The length-by-length distance matrices come from one incremental
    sweep of :func:`repro.distance.engine.iter_prefix_distances`.  The
    nearest neighbour is taken on squared distances (the ordering is the
    same), with ties resolved to the lowest training index.
    """
    nn_indices: dict[int, np.ndarray] = {}
    rnn_sets: dict[int, list[frozenset[int]]] = {}
    n = data.shape[0]
    for length, distances in iter_prefix_distances(data, data, lengths, squared=True):
        nearest = nearest_neighbours(distances)
        nn_indices[length] = nearest
        reverse: list[set[int]] = [set() for _ in range(n)]
        for i, j in enumerate(nearest):
            reverse[j].add(i)
        rnn_sets[length] = [frozenset(s) for s in reverse]
    return nn_indices, rnn_sets


def compute_mpls_reference(
    model: ECTSClassifier,
    labels: np.ndarray,
    lengths: list[int],
    nn_indices: dict[int, np.ndarray],
    rnn_sets: dict[int, list[frozenset[int]]],
) -> np.ndarray:
    """Minimum prediction length of every training exemplar (reference loop)."""
    n = labels.shape[0]
    full = lengths[-1]
    mpl = np.full(n, full, dtype=int)
    full_rnn = rnn_sets[full]
    full_nn = nn_indices[full]
    for i in range(n):
        # Walk lengths from the longest down; the MPL is the start of the
        # longest suffix of lengths over which the evidence is stable.
        stable_from = full
        for length in reversed(lengths):
            nn_label_ok = labels[nn_indices[length][i]] == labels[full_nn[i]]
            if model.require_rnn_stability:
                # Strict ECTS: the RNN set must already be exactly the
                # full-length RNN set.
                rnn_ok = rnn_sets[length][i] == full_rnn[i]
            else:
                # Relaxed ECTS: the RNN set may still be growing, but it
                # must not contain anything that will later disappear.
                rnn_ok = rnn_sets[length][i] <= full_rnn[i]
            label_pure_ok = all(labels[j] == labels[i] for j in rnn_sets[length][i])
            if nn_label_ok and rnn_ok and (label_pure_ok or not rnn_sets[length][i]):
                stable_from = length
            else:
                break
        mpl[i] = stable_from
    return mpl


def compute_support_reference(
    labels: np.ndarray, full_rnn: list[frozenset[int]]
) -> np.ndarray:
    """Support of each exemplar, recomputed per exemplar (reference loop)."""
    support = np.zeros(labels.shape[0])
    for i, rnn in enumerate(full_rnn):
        same_class = np.sum(labels == labels[i]) - 1
        if same_class <= 0:
            support[i] = 0.0
            continue
        same_class_rnn = sum(1 for j in rnn if labels[j] == labels[i])
        support[i] = same_class_rnn / same_class
    return support
