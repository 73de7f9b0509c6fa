"""Plain-classification baselines.

The paper's recommendation list includes: "Anyone proposing an ETSC model
needs to carefully explain what the model offers beyond simply classification
with trivial awareness that not all datapoints matter."  These two baselines
are exactly that trivial awareness:

* :class:`FullLengthClassifier` waits for the whole exemplar and applies 1-NN
  -- ordinary classification, the thing ETSC claims to improve on.
* :class:`FixedTruncationClassifier` always classifies after a fixed prefix
  length chosen on the training data (the "basic data cleaning" of Fig. 9).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.classifiers.prefix_probability import (
    PrefixProbabilities,
    ProbabilisticEarlyClassifier,
)

__all__ = ["FullLengthClassifier", "FixedTruncationClassifier"]


class FullLengthClassifier(ProbabilisticEarlyClassifier):
    """1-NN classification that only answers once the whole exemplar is seen.

    Not an early classifier at all -- it is the reference point every early
    classifier should be compared against.
    """

    def __init__(self) -> None:
        super().__init__()

    def fit(self, series: np.ndarray, labels: Sequence) -> "FullLengthClassifier":
        """Fit the underlying full-length probabilistic classifier."""
        data, label_arr = self._validate_training_data(series, labels)
        self._model.fit(data, label_arr)
        self._store_training_shape(data, label_arr)
        return self

    def checkpoints(self) -> list[int]:
        """A single checkpoint: the full exemplar length."""
        self._require_fitted()
        return [self.train_length_]

    def _ready(self, result: PrefixProbabilities, length: int) -> bool:
        """Ready only once the whole exemplar has been seen."""
        return length >= self.train_length_


class FixedTruncationClassifier(ProbabilisticEarlyClassifier):
    """Classify after a fixed prefix length.

    Parameters
    ----------
    trigger_length:
        Prefix length at which to commit.  ``None`` (default) selects, at fit
        time, the shortest length whose leave-one-out training accuracy is
        within ``tolerance`` of the best length -- i.e. the Fig. 9 exercise of
        noticing that most of the exemplar is padding.
    tolerance:
        Allowed accuracy gap (absolute) when auto-selecting the length.
    """

    def __init__(
        self,
        trigger_length: int | None = None,
        tolerance: float = 0.01,
    ) -> None:
        super().__init__()
        if trigger_length is not None and trigger_length < 1:
            raise ValueError("trigger_length must be >= 1")
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.requested_trigger_length = trigger_length
        self.tolerance = tolerance
        self.trigger_length_: int | None = None

    def fit(self, series: np.ndarray, labels: Sequence) -> "FixedTruncationClassifier":
        """Fit the base classifier and select the cheapest accurate trigger length."""
        data, label_arr = self._validate_training_data(series, labels)
        requested = self.requested_trigger_length
        if requested is not None and requested > data.shape[1]:
            raise ValueError("trigger_length exceeds the training length")
        if requested is not None and requested < self._model.min_length:
            raise ValueError(
                f"trigger_length {requested} is below the model's min_length "
                f"of {self._model.min_length}"
            )
        self._model.fit(data, label_arr)
        self._store_training_shape(data, label_arr)
        if requested is not None:
            self.trigger_length_ = int(requested)
        else:
            self.trigger_length_ = self._select_length(data, label_arr)
        return self

    def _loo_accuracy(self, data: np.ndarray, labels: np.ndarray, length: int) -> float:
        """Leave-one-out 1-NN accuracy using only the first ``length`` samples."""
        from repro.distance.euclidean import pairwise_euclidean

        prefix = data[:, :length]
        distances = pairwise_euclidean(prefix)
        np.fill_diagonal(distances, np.inf)
        nearest = np.argmin(distances, axis=1)
        return float(np.mean(labels[nearest] == labels))

    def _select_length(self, data: np.ndarray, labels: np.ndarray) -> int:
        length = data.shape[1]
        candidates = sorted({max(3, int(round(f * length))) for f in np.linspace(0.1, 1.0, 19)})
        accuracies = {c: self._loo_accuracy(data, labels, c) for c in candidates}
        best = max(accuracies.values())
        for candidate in candidates:
            if accuracies[candidate] >= best - self.tolerance:
                return candidate
        return length

    def checkpoints(self) -> list[int]:
        """Two checkpoints: the learned trigger length and the full length."""
        self._require_fitted()
        assert self.trigger_length_ is not None
        return [self.trigger_length_, self.train_length_]

    def _ready(self, result: PrefixProbabilities, length: int) -> bool:
        """Ready once the learned trigger length is reached."""
        assert self.trigger_length_ is not None
        return length >= self.trigger_length_
