"""The probability-threshold early classifier (Fig. 3, right panel).

"Here the ETSC algorithm simply predicts the probability of being in each
class, and if that probability exceeds some user-specified threshold"
(the paper's description of the second common framing of ETSC).  In Fig. 3 a
threshold of 0.8 lets the model commit after seeing only 36 of 150 samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.classifiers.base import PartialPrediction
from repro.classifiers.prefix_probability import (
    PrefixProbabilities,
    ProbabilisticEarlyClassifier,
)

__all__ = ["ProbabilityThresholdClassifier"]


class ProbabilityThresholdClassifier(ProbabilisticEarlyClassifier):
    """Commit as soon as the predicted class probability exceeds a threshold.

    Parameters
    ----------
    threshold:
        User-specified probability threshold in (0.5, 1.0]; Fig. 3 uses 0.8.
    min_length:
        Smallest prefix length at which the model is allowed to trigger.
    checkpoint_step:
        Evaluate every ``checkpoint_step`` samples (1 = every new sample, the
        purest form of "incrementally arriving data").
    """

    def __init__(
        self,
        threshold: float = 0.8,
        min_length: int = 5,
        checkpoint_step: int = 1,
    ) -> None:
        super().__init__(min_length=min_length)
        if not 0.5 < threshold <= 1.0:
            raise ValueError("threshold must be in (0.5, 1.0]")
        if checkpoint_step < 1:
            raise ValueError("checkpoint_step must be >= 1")
        self.threshold = threshold
        self.min_length = min_length
        self.checkpoint_step = checkpoint_step

    def fit(self, series: np.ndarray, labels: Sequence) -> "ProbabilityThresholdClassifier":
        """Fit the prefix probabilistic model used to test the threshold."""
        data, label_arr = self._validate_training_data(series, labels)
        if self.min_length >= data.shape[1]:
            raise ValueError("min_length must be smaller than the series length")
        self._model.fit(data, label_arr)
        self._store_training_shape(data, label_arr)
        return self

    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """Classify a prefix; ready once the winning probability clears the threshold."""
        arr = self._validate_prefix(prefix)
        if arr.shape[0] >= self.min_length:
            return super().predict_partial(arr)
        # Too little data to even form probabilities; report an even split.
        uniform = 1.0 / len(self.classes_)
        return PartialPrediction(
            label=self.classes_[0],
            ready=False,
            confidence=uniform,
            prefix_length=arr.shape[0],
            probabilities={cls: uniform for cls in self.classes_},
        )

    def checkpoints(self) -> list[int]:
        """Prefix lengths evaluated at prediction time (every ``checkpoint_step`` samples)."""
        self._require_fitted()
        points = list(range(self.min_length, self.train_length_ + 1, self.checkpoint_step))
        if points[-1] != self.train_length_:
            points.append(self.train_length_)
        return points

    def _ready(self, result: PrefixProbabilities, length: int) -> bool:
        """Ready once the winning class's probability clears the threshold."""
        return result.confidence >= self.threshold
