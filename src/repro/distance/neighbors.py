"""The 1-NN Euclidean time-series classifier.

The 1-NN classifier with (z-normalised) Euclidean distance is the workhorse of
the paper: it is the "classic time series classification" the ETSC algorithms
are compared against, the slave classifier inside our TEASER implementation,
and the classifier used for the prefix-accuracy curves of Fig. 9.  It is the
only neighbour rule in the library: a query takes the label of its nearest
training series, the lowest training index on an exact tie.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.memory import get_memory_budget
from repro.distance.engine import batch_prefix_distances, iter_prefix_distances
from repro.distance.euclidean import pairwise_euclidean
from repro.distance.znorm import znormalize

__all__ = ["KNeighborsTimeSeriesClassifier"]


class KNeighborsTimeSeriesClassifier:
    """1-NN Euclidean classifier over fixed-length time series.

    Parameters
    ----------
    znormalize_inputs:
        If ``True``, every training and query series is z-normalised before
        distances are computed.  Set to ``False`` to reproduce the "peeking"
        behaviour of models that assume their inputs arrive pre-normalised.

    Notes
    -----
    **Tie-breaking convention.**  Both prediction paths (:meth:`predict`,
    :meth:`predict_prefixes`) take the ``np.argmin`` of each query's
    distance row, which returns the *first* minimum: an exact distance tie
    goes to the lowest training index.  This matters on UCR-style
    integer-valued data, where exact ties are common.
    """

    def __init__(self, znormalize_inputs: bool = False) -> None:
        self.znormalize_inputs = znormalize_inputs
        self._train: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._classes: tuple = ()

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
        if data.shape[0] < 1:
            raise ValueError("need at least one training series")
        if self.znormalize_inputs:
            data = znormalize(data)
        self._train = data
        self._labels = label_arr
        self._classes = tuple(np.unique(label_arr).tolist())
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
    def _nearest_labels(self, distances: np.ndarray) -> np.ndarray:
        """The label of each row's nearest training series, lowest index on ties."""
        _, labels = self._require_fitted()
        return labels[np.argmin(distances, axis=1)]

    def predict(self, series: np.ndarray) -> np.ndarray:
        """Predict labels for a 2-D array of query series.

        The whole test set is answered from one pairwise distance matrix.
        """
        train, _ = self._require_fitted()
        queries = np.asarray(series, dtype=float)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.shape[1] != train.shape[1]:
            raise ValueError(
                f"query length {queries.shape[1]} does not match training length "
                f"{train.shape[1]}"
            )
        if self.znormalize_inputs:
            queries = znormalize(queries)
        return self._nearest_labels(pairwise_euclidean(queries, train))

    def predict_prefixes(self, series: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
        """Predict labels for raw prefixes of every query at several lengths.

        The Fig. 3 / Fig. 9 style sweeps ask the same question at dozens of
        prefix lengths; all of them are answered from one cumulative-sum
        pass of :func:`repro.distance.engine.batch_prefix_distances`,
        costing a single full-length distance computation overall.  Sweeps
        whose stacked ``(n_lengths, n_queries, n_train)`` distance array
        would exceed the :mod:`repro.memory` budget stream one per-length
        matrix at a time through the incremental engine instead, keeping
        peak memory at a single matrix.  Both read squared distances, whose
        ``argmin`` is the nearest neighbour's.

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
        train, _ = self._require_fitted()
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

        sorted_lengths = sorted(set(lengths))
        queries = queries[:, : max(lengths)]
        stacked_bytes = len(sorted_lengths) * queries.shape[0] * train.shape[0] * 8
        if stacked_bytes <= get_memory_budget():
            batched = batch_prefix_distances(queries, train, sorted_lengths, squared=True)
            votes = {
                length: self._nearest_labels(batched[k])
                for k, length in enumerate(sorted_lengths)
            }
        else:
            # Dense sweeps at scale would stack a (n_lengths, n_queries,
            # n_train) array; above the budget, stream one matrix at a
            # time through the incremental engine instead (only the
            # per-length label vectors are kept).
            votes = {
                length: self._nearest_labels(distances)
                for length, distances in iter_prefix_distances(
                    queries, train, sorted_lengths, squared=True
                )
            }
        out = np.empty((len(lengths), queries.shape[0]), dtype=object)
        for k, length in enumerate(lengths):
            out[k] = votes[length]
        return out

    def score(self, series: np.ndarray, labels: Sequence) -> float:
        """Mean accuracy over the given test set."""
        predictions = self.predict(series)
        truth = np.asarray(labels)
        if truth.shape[0] != predictions.shape[0]:
            raise ValueError("labels must have one entry per series")
        return float(np.mean(predictions == truth))
