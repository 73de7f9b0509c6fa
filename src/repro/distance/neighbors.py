"""Nearest-neighbour time-series classifiers.

The 1-NN classifier with (z-normalised) Euclidean distance is the workhorse of
the paper: it is the "classic time series classification" the ETSC algorithms
are compared against, the slave classifier inside our TEASER implementation,
and the classifier used for the prefix-accuracy curves of Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.memory import get_memory_budget
from repro.distance.engine import (
    _stable_k_smallest,
    batch_prefix_distances,
    iter_prefix_distances,
)
from repro.distance.dtw import EnvelopeCache
from repro.distance.dtw_search import dtw_nearest_neighbors
from repro.distance.euclidean import pairwise_euclidean
from repro.distance.znorm import EPSILON, znormalize

__all__ = ["NearestNeighborResult", "KNeighborsTimeSeriesClassifier"]

DistanceFunction = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class NearestNeighborResult:
    """The outcome of a nearest-neighbour query.

    Attributes
    ----------
    label:
        Predicted class label (majority vote among the k neighbours).
    neighbor_indices:
        Indices (into the training set) of the k nearest neighbours, closest
        first.
    neighbor_distances:
        The corresponding distances.
    probabilities:
        Mapping from class label to the soft-vote probability derived from the
        neighbour distances (inverse-distance weighted).
    """

    label: object
    neighbor_indices: tuple[int, ...]
    neighbor_distances: tuple[float, ...]
    probabilities: dict = field(default_factory=dict)


class KNeighborsTimeSeriesClassifier:
    """k-NN classifier over fixed-length time series.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours used for the vote (default 1, the community
        standard for UCR-style evaluation).
    metric:
        The string ``"euclidean"`` (the default; uses a vectorised pairwise
        computation), the string ``"dtw"`` (banded DTW k-NN through the
        lower-bound cascade of
        :func:`repro.distance.dtw_search.dtw_nearest_neighbors`), or any
        callable ``f(a, b) -> float``.
    znormalize_inputs:
        If ``True``, every training and query series is z-normalised before
        distances are computed.  Set to ``False`` to reproduce the "peeking"
        behaviour of models that assume their inputs arrive pre-normalised.
    metric_params:
        Optional mapping of extra parameters for a string metric.  The
        ``"dtw"`` metric reads ``"window"`` (Sakoe-Chiba band spec with the
        semantics of :func:`repro.distance.dtw.dtw_distance`); unknown keys
        are rejected so a typo cannot silently fall back to defaults.

    Notes
    -----
    **Tie-breaking convention.**  All prediction paths (:meth:`query`,
    :meth:`predict`, :meth:`predict_prefixes`) resolve exact distance ties by
    preferring the *lowest training index*, via a stable sort of the distance
    vector.  This matters on UCR-style integer-valued data, where exact ties
    are common; a path-dependent tie-break would let the batched and
    per-query entry points silently disagree on such datasets.

    **Zero-distance convention.**  An exact-match neighbour (*computed*
    distance below :data:`repro.distance.znorm.EPSILON`) deterministically
    receives the whole soft vote -- split uniformly if several neighbours
    match exactly -- rather than a large-but-finite inverse-distance weight.
    The convention is judged on the distance the metric path reports: the
    Euclidean fast path's dot-product expansion has a noise floor of about
    ``1e-8 * ||x||^2``, so on raw data far from zero a true duplicate can
    come back slightly above the floor, in which case it is (still
    deterministically) treated as a merely very close neighbour.  On
    z-normalised data -- the convention of every experiment in this repo --
    duplicates land below the floor and take the whole vote.  See
    :meth:`_soft_vote`.
    """

    def __init__(
        self,
        n_neighbors: int = 1,
        metric: str | DistanceFunction = "euclidean",
        znormalize_inputs: bool = False,
        metric_params: dict | None = None,
    ) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors
        self.metric = metric
        self.znormalize_inputs = znormalize_inputs
        self.metric_params = dict(metric_params) if metric_params else {}
        if self.metric_params:
            allowed = {"window"} if metric == "dtw" else set()
            unknown = set(self.metric_params) - allowed
            if unknown:
                raise ValueError(
                    f"metric {metric!r} does not accept metric_params "
                    f"{sorted(unknown)}"
                )
        self._train: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._classes: tuple = ()
        self._envelope_cache: EnvelopeCache | None = None

    # ------------------------------------------------------------------ fit
    def fit(self, series: np.ndarray, labels: Sequence) -> "KNeighborsTimeSeriesClassifier":
        """Store the training series and labels.

        Parameters
        ----------
        series:
            2-D array of shape ``(n_series, length)``.
        labels:
            Sequence of ``n_series`` class labels.
        """
        data = np.asarray(series, dtype=float)
        if data.ndim != 2:
            raise ValueError("series must be a 2-D array (n_series, length)")
        label_arr = np.asarray(labels)
        if label_arr.shape[0] != data.shape[0]:
            raise ValueError("labels must have one entry per series")
        if data.shape[0] < self.n_neighbors:
            raise ValueError("need at least n_neighbors training series")
        if self.znormalize_inputs:
            data = znormalize(data)
        self._train = data
        self._labels = label_arr
        self._classes = tuple(np.unique(label_arr).tolist())
        # Fresh per fit: the DTW cascade's train-side band envelopes depend
        # only on the stored training set, so one cache per fitted model lets
        # every predict/predict_proba call after the first skip the envelope
        # sweep (content-fingerprinted keys make refits self-invalidating).
        self._envelope_cache = EnvelopeCache()
        return self

    @property
    def classes_(self) -> tuple:
        """Class labels seen during :meth:`fit`, sorted."""
        return self._classes

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._train is not None

    def _require_fitted(self) -> tuple[np.ndarray, np.ndarray]:
        if self._train is None or self._labels is None:
            raise RuntimeError("classifier must be fitted before use")
        return self._train, self._labels

    # -------------------------------------------------------------- queries
    def _distances_to_train(self, queries: np.ndarray) -> np.ndarray:
        train, _ = self._require_fitted()
        if queries.shape[1] != train.shape[1]:
            raise ValueError(
                f"query length {queries.shape[1]} does not match training length "
                f"{train.shape[1]}"
            )
        if self.metric == "euclidean":
            return pairwise_euclidean(queries, train)
        if callable(self.metric):
            out = np.empty((queries.shape[0], train.shape[0]))
            for i, q in enumerate(queries):
                for j, t in enumerate(train):
                    out[i, j] = self.metric(q, t)
            return out
        raise ValueError(f"unknown metric {self.metric!r}")

    def _k_nearest_stable(self, distances: np.ndarray) -> np.ndarray:
        """Indices of the ``k`` smallest entries per row, lowest index on ties.

        ``distances`` has shape ``(n_queries, n_train)``.  Delegates to
        :func:`repro.distance.engine._stable_k_smallest`: ``np.argmin`` for
        ``k == 1`` (documented to return the *first* occurrence of the
        minimum), a stable argsort otherwise -- both the same lowest-index
        tie-break.
        """
        return _stable_k_smallest(distances, self.n_neighbors)[0]

    def _neighbors_for(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, distances)`` of each query row's k nearest training series.

        The single neighbour-finding path every prediction entry point sits
        on.  The ``"dtw"`` metric goes straight to
        :func:`repro.distance.dtw_search.dtw_nearest_neighbors`, whose
        cascade never materialises the dense matrix; everything else
        computes its ``(n_queries, n_train)`` matrix once and stable-selects
        per row.  Both rows come back sorted
        by ``(distance, training index)``.
        """
        train, _ = self._require_fitted()
        if self.metric == "dtw":
            return dtw_nearest_neighbors(
                queries,
                train,
                window=self.metric_params.get("window"),
                n_neighbors=self.n_neighbors,
                envelope_cache=self._envelope_cache,
            )
        distances = self._distances_to_train(queries)
        idx = self._k_nearest_stable(distances)
        return idx, np.take_along_axis(distances, idx, axis=1)

    def query(self, series: np.ndarray) -> NearestNeighborResult:
        """Full nearest-neighbour query for a single series."""
        q = np.asarray(series, dtype=float)
        if q.ndim != 1:
            raise ValueError("query expects a single 1-D series")
        if self.znormalize_inputs:
            q = znormalize(q)
        return self._query_prepared(q)

    def _query_prepared(self, q: np.ndarray) -> NearestNeighborResult:
        """:meth:`query` on a series that has already been normalised (if any)."""
        _, labels = self._require_fitted()
        idx, dists = self._neighbors_for(q[None, :])
        order, neighbor_distances = idx[0], dists[0]
        neighbor_labels = labels[order]

        probabilities = self._soft_vote(neighbor_labels, neighbor_distances)
        label = max(probabilities.items(), key=lambda item: item[1])[0]
        return NearestNeighborResult(
            label=label,
            neighbor_indices=tuple(int(i) for i in order),
            neighbor_distances=tuple(float(d) for d in neighbor_distances),
            probabilities=probabilities,
        )

    def _soft_vote(self, neighbor_labels: np.ndarray, distances: np.ndarray) -> dict:
        """Inverse-distance-weighted vote, normalised to a probability dict.

        Zero-distance convention: neighbours at computed distance below
        :data:`repro.distance.znorm.EPSILON` are exact matches and
        deterministically receive all of the probability mass (split
        uniformly among them).  Every other neighbour is weighted by the
        plain inverse distance ``1 / d`` -- no smoothing epsilon, so the
        vote cannot be swayed by how a magic constant compares to ``d``.
        (See the class docstring for the one caveat: a metric path with a
        numerical noise floor above ``EPSILON`` reports a true duplicate as
        a very close -- not exact -- neighbour.)
        """
        distances = np.asarray(distances, dtype=float)
        exact = distances < EPSILON
        if np.any(exact):
            weights = exact.astype(float)
        else:
            weights = 1.0 / distances
        scores = {cls: 0.0 for cls in self._classes}
        for lbl, w in zip(neighbor_labels, weights):
            key = lbl.item() if hasattr(lbl, "item") else lbl
            scores[key] = scores.get(key, 0.0) + float(w)
        total = sum(scores.values())
        if total <= 0:
            # Every neighbour at infinite distance (a gated custom metric can
            # report that): no evidence either way, return a uniform vote.
            uniform = 1.0 / max(len(scores), 1)
            return {cls: uniform for cls in scores}
        return {cls: score / total for cls, score in scores.items()}

    def _labels_from_neighbors(
        self, neighbours: np.ndarray, distances: np.ndarray
    ) -> np.ndarray:
        """Voted labels for already-selected ``(n_queries, k)`` neighbours.

        Only the (cheap) per-row soft vote remains in Python, and only for
        ``k > 1``.
        """
        _, labels = self._require_fitted()
        if self.n_neighbors == 1:
            return labels[neighbours[:, 0]]
        predicted = []
        for i in range(neighbours.shape[0]):
            votes = self._soft_vote(labels[neighbours[i]], distances[i])
            predicted.append(max(votes.items(), key=lambda item: item[1])[0])
        return np.asarray(predicted)

    def _vote_from_distances(self, distances: np.ndarray) -> np.ndarray:
        """Labels for a precomputed ``(n_queries, n_train)`` distance matrix."""
        neighbours = self._k_nearest_stable(distances)
        return self._labels_from_neighbors(
            neighbours, np.take_along_axis(distances, neighbours, axis=1)
        )

    def predict(self, series: np.ndarray) -> np.ndarray:
        """Predict labels for a 2-D array of query series.

        The whole test set is answered from one :meth:`_neighbors_for` call:
        with the Euclidean metric that is one pairwise distance matrix for
        any ``n_neighbors``; with the ``"dtw"`` metric it is one
        :func:`repro.distance.dtw_search.dtw_nearest_neighbors` cascade
        search.  No per-query recomputation, no
        re-normalisation of already-normalised queries.
        """
        queries = np.asarray(series, dtype=float)
        if queries.ndim == 1:
            queries = queries[None, :]
        if self.znormalize_inputs:
            queries = znormalize(queries)
        return self._labels_from_neighbors(*self._neighbors_for(queries))

    def predict_prefixes(self, series: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
        """Predict labels for raw prefixes of every query at several lengths.

        The Fig. 3 / Fig. 9 style sweeps ask the same question at dozens of
        prefix lengths; with the Euclidean metric all of them are answered
        from one cumulative-sum pass of
        :func:`repro.distance.engine.batch_prefix_distances`, costing a
        single full-length distance computation overall.  Sweeps whose
        stacked ``(n_lengths, n_queries, n_train)`` distance array would
        exceed the :mod:`repro.memory` budget stream one per-length matrix
        at a time through the incremental engine instead, keeping peak
        memory at a single matrix.

        Prefixes are compared *as stored*: if ``znormalize_inputs`` is set,
        the whole query is z-normalised first (matching :meth:`predict`) and
        its raw prefixes are then used -- there is no per-prefix
        re-normalisation here.  For the honest re-normalised treatment see
        :func:`repro.evaluation.runner.prefix_accuracy_curve`.

        Parameters
        ----------
        series:
            2-D array of query series (or a single 1-D series).
        lengths:
            Strictly increasing prefix lengths in ``[1, training length]``.

        Returns
        -------
        numpy.ndarray
            Object array of shape ``(len(lengths), n_queries)``;
            ``result[k, i]`` is the predicted label for query ``i`` truncated
            to ``lengths[k]`` samples.
        """
        train, labels = self._require_fitted()
        queries = np.asarray(series, dtype=float)
        if queries.ndim == 1:
            queries = queries[None, :]
        if self.znormalize_inputs:
            queries = znormalize(queries)
        lengths = [int(v) for v in lengths]
        if not lengths or any(not 1 <= v <= train.shape[1] for v in lengths):
            raise ValueError(
                f"lengths must be non-empty and lie in [1, {train.shape[1]}]"
            )
        if queries.shape[1] < max(lengths):
            raise ValueError("queries are shorter than the longest requested prefix")

        out = np.empty((len(lengths), queries.shape[0]), dtype=object)
        if self.metric == "euclidean":
            sorted_lengths = sorted(set(lengths))
            squared = self.n_neighbors == 1
            stacked_bytes = (
                len(sorted_lengths) * queries.shape[0] * train.shape[0] * 8
            )
            if stacked_bytes <= get_memory_budget():
                batched = batch_prefix_distances(
                    queries[:, : max(lengths)], train, sorted_lengths, squared=squared
                )
                votes = {
                    length: self._vote_from_distances(batched[k])
                    for k, length in enumerate(sorted_lengths)
                }
            else:
                # Dense sweeps at scale would stack a (n_lengths, n_queries,
                # n_train) array; above the budget, stream one matrix at a
                # time through the incremental engine instead (only the
                # per-length label vectors are kept).
                votes = {
                    length: self._vote_from_distances(distances)
                    for length, distances in iter_prefix_distances(
                        queries[:, : max(lengths)], train, sorted_lengths, squared=squared
                    )
                }
            for k, length in enumerate(lengths):
                out[k] = votes[length]
            return out
        # Generic metric: no incremental structure to exploit, recompute.
        for k, length in enumerate(lengths):
            sub = KNeighborsTimeSeriesClassifier(
                n_neighbors=self.n_neighbors,
                metric=self.metric,
                metric_params=self.metric_params or None,
            ).fit(train[:, :length], labels)
            out[k] = sub.predict(queries[:, :length])
        return out

    def predict_proba(self, series: np.ndarray) -> list[dict]:
        """Per-class probability dictionaries for a 2-D array of queries.

        One batched :meth:`_neighbors_for` call answers the whole test set --
        the same path, tie-break and zero-distance conventions as
        :meth:`predict` *by construction*.  (This used to loop
        :meth:`query` per row, recomputing a full pairwise distance row for
        every query.)
        """
        queries = np.asarray(series, dtype=float)
        if queries.ndim == 1:
            queries = queries[None, :]
        if self.znormalize_inputs:
            queries = znormalize(queries)
        _, labels = self._require_fitted()
        idx, dists = self._neighbors_for(queries)
        return [
            self._soft_vote(labels[idx[i]], dists[i]) for i in range(idx.shape[0])
        ]

    def score(self, series: np.ndarray, labels: Sequence) -> float:
        """Mean accuracy over the given test set."""
        predictions = self.predict(series)
        truth = np.asarray(labels)
        if truth.shape[0] != predictions.shape[0]:
            raise ValueError("labels must have one entry per series")
        return float(np.mean(predictions == truth))
