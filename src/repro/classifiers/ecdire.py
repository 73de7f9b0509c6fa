"""ECDIRE -- Early Classification based on DIscriminativeness and REliability.

Mori et al., *Reliable Early Classification of Time Series Based on
Discriminating the Classes over Time* (DMKD 2017) -- reference [7] of the
paper.  The method's two ideas:

1. **Safe timestamps.**  Using cross-validation on the training set, find for
   every class the earliest prefix length from which predictions *for that
   class* reach a required fraction of the accuracy they will eventually have
   at full length.  Before a class's safe timestamp the model refuses to
   predict that class, no matter how confident the base classifier looks.
2. **Reliability thresholds.**  Also from cross-validation, record how large
   the probability margin of *correct* predictions typically is at each
   checkpoint; at prediction time a margin below that threshold defers the
   decision.

This implementation uses the shared nearest-neighbour prefix classifier as
the probabilistic base (the original uses Gaussian-process classifiers) and
leave-one-out evaluation instead of k-fold cross-validation.  Neither choice
changes the two mechanisms above, which are what make ECDIRE interesting for
the paper's critique: its safe timestamps are exactly the kind of machinery
that looks rigorous on UCR-format data and says nothing about streams full
of prefixes and homophones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.classifiers.base import default_checkpoints
from repro.classifiers.prefix_probability import (
    PrefixProbabilisticClassifier,
    PrefixProbabilities,
    ProbabilisticEarlyClassifier,
    nearest_checkpoint,
)

__all__ = ["ECDIREClassifier"]


class ECDIREClassifier(ProbabilisticEarlyClassifier):
    """Early classification with per-class safe timestamps and reliability thresholds.

    Parameters
    ----------
    accuracy_threshold:
        Fraction of the full-length per-class accuracy that must be reached
        before a class's timestamp is considered safe.  The original's default
        is 100 % ("do not lose any accuracy"), which is also the default here;
        lowering it trades accuracy for earliness.
    n_checkpoints:
        Number of prefix lengths examined.
    margin_percentile:
        Percentile of the correct-prediction margins used as the reliability
        threshold at each checkpoint (lower = more permissive).
    """

    #: Univariate-only: the per-length statistics this algorithm is
    #: built on are defined over scalar samples, so multichannel
    #: (n, L, d>1) training data is rejected with a named-axis error.
    supports_multichannel = False

    def __init__(
        self,
        accuracy_threshold: float = 1.0,
        n_checkpoints: int = 20,
        margin_percentile: float = 25.0,
    ) -> None:
        super().__init__()
        if not 0.0 < accuracy_threshold <= 1.0:
            raise ValueError("accuracy_threshold must be in (0, 1]")
        if n_checkpoints < 2:
            raise ValueError("n_checkpoints must be at least 2")
        if not 0.0 <= margin_percentile <= 100.0:
            raise ValueError("margin_percentile must be a percentile in [0, 100]")
        self.accuracy_threshold = accuracy_threshold
        self.n_checkpoints = n_checkpoints
        self.margin_percentile = margin_percentile
        self._checkpoints: list[int] = []
        self.safe_timestamps_: dict = {}
        self.margin_thresholds_: dict[int, float] = {}

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "ECDIREClassifier":
        """Fit the base classifier, then derive safe timestamps and margin thresholds."""
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        self._checkpoints = default_checkpoints(data.shape[1], self.n_checkpoints)
        self._model = PrefixProbabilisticClassifier(checkpoints=self._checkpoints).fit(
            data, label_arr
        )

        per_class_accuracy, margins = self._cross_validated_behaviour(data, label_arr)
        self.safe_timestamps_ = self._compute_safe_timestamps(per_class_accuracy)
        self.margin_thresholds_ = self._compute_margin_thresholds(margins)
        return self

    def _cross_validated_behaviour(
        self, data: np.ndarray, labels: np.ndarray
    ) -> tuple[dict, dict]:
        """Leave-one-out per-class accuracy and correct-prediction margins per checkpoint.

        The whole (exemplar x checkpoint) table of leave-one-out predictions
        comes from one batched incremental prefix-distance sweep
        (:meth:`PrefixProbabilisticClassifier.predict_proba_prefixes`), so
        the cross-validation costs a single full-length distance matrix
        rather than one matrix per checkpoint.
        """
        per_class_accuracy: dict = {c: {} for c in self._checkpoints}
        margins: dict = {c: [] for c in self._checkpoints}
        classes = tuple(np.unique(labels).tolist())
        loo = self._model.predict_proba_prefixes(data, self._checkpoints, exclude_self=True)
        for checkpoint in self._checkpoints:
            correct = {cls: 0 for cls in classes}
            total = {cls: 0 for cls in classes}
            for result, label in zip(loo[checkpoint], labels):
                total[label] += 1
                if result.label == label:
                    correct[label] += 1
                    margins[checkpoint].append(result.margin)
            per_class_accuracy[checkpoint] = {
                cls: (correct[cls] / total[cls] if total[cls] else 0.0) for cls in classes
            }
        return per_class_accuracy, margins

    def _compute_safe_timestamps(self, per_class_accuracy: dict) -> dict:
        """Earliest checkpoint from which each class stays above its target accuracy."""
        full = self._checkpoints[-1]
        safe: dict = {}
        for cls in self.classes_:
            target = self.accuracy_threshold * per_class_accuracy[full][cls]
            safe[cls] = full
            # Walk from the end: the safe timestamp is the start of the longest
            # suffix of checkpoints on which the class accuracy holds.
            for checkpoint in reversed(self._checkpoints):
                if per_class_accuracy[checkpoint][cls] >= target:
                    safe[cls] = checkpoint
                else:
                    break
        return safe

    def _compute_margin_thresholds(self, margins: dict) -> dict[int, float]:
        thresholds: dict[int, float] = {}
        for checkpoint, values in margins.items():
            if values:
                thresholds[checkpoint] = float(np.percentile(values, self.margin_percentile))
            else:
                # No correct predictions at this checkpoint: require an
                # unattainable margin so nothing is emitted from it.
                thresholds[checkpoint] = float("inf")
        return thresholds

    # ------------------------------------------------------------ prediction
    def checkpoints(self) -> list[int]:
        """The evaluated prefix lengths (one per calibrated checkpoint)."""
        self._require_fitted()
        return list(self._checkpoints)

    def _ready(self, result: PrefixProbabilities, length: int) -> bool:
        """Ready once the class is safe and the margin clears its threshold.

        The whole exemplar is always ready.
        """
        if length >= self.train_length_:
            return True
        checkpoint = nearest_checkpoint(self._checkpoints, length)
        safe_from = self.safe_timestamps_.get(result.label, self.train_length_)
        margin_ok = result.margin >= self.margin_thresholds_.get(checkpoint, float("inf"))
        return bool(length >= safe_from and margin_ok)
