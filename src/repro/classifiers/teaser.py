"""TEASER -- Two-tier Early and Accurate Series classifiER (Schäfer & Leser, DMKD 2020).

TEASER is the model used in Fig. 3 (left) of the paper, and -- as the paper's
footnote points out -- the one published ETSC method that does *not* assume
whole-exemplar z-normalisation of streaming prefixes, because its authors were
warned about the issue while the paper under reproduction was being written.

Architecture (faithful to the publication):

* the exemplar length is divided into ``n_checkpoints`` **snapshot lengths**
  (20 in the original, i.e. every 5 % of the series);
* at every snapshot ``i`` a **slave classifier** ``s_i`` produces class
  probabilities from the prefix observed so far;
* a per-snapshot **master classifier** ``m_i`` -- a one-class model trained on
  the probability/margin vectors of the *correctly classified* training
  exemplars -- decides whether the slave's prediction should be accepted;
* a prediction is only emitted once the same class has been accepted ``v``
  times in a row; ``v`` is selected on the training data by maximising the
  harmonic mean of accuracy and earliness.

Substitutions relative to the original: the slave classifiers are
nearest-neighbour probability models rather than WEASEL logistic regression,
and the master one-class classifier is a Gaussian envelope over the
acceptance features rather than a one-class SVM.  Both keep the two-tier
accept/require-consistency structure that defines TEASER.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.classifiers.base import PartialPrediction, default_checkpoints
from repro.classifiers.prefix_probability import (
    PrefixProbabilisticClassifier,
    PrefixProbabilities,
    ProbabilisticEarlyClassifier,
    nearest_checkpoint,
)
from repro.evaluation.earliness import harmonic_mean_accuracy_earliness

__all__ = ["TEASERClassifier"]


@dataclass
class _OneClassGaussian:
    """A Gaussian envelope one-class model over acceptance feature vectors."""

    mean: np.ndarray
    inv_covariance: np.ndarray
    threshold: float

    @classmethod
    def fit(cls, rows: np.ndarray, quantile: float) -> "_OneClassGaussian":
        """Fit the envelope to the given acceptance-feature rows."""
        mean = rows.mean(axis=0)
        cov = np.atleast_2d(np.cov(rows, rowvar=False, bias=True))
        cov += 1e-4 * np.eye(cov.shape[0])
        inv = np.linalg.inv(cov)
        centred = rows - mean
        distances = np.sqrt(np.sum((centred @ inv) * centred, axis=1))
        threshold = float(np.quantile(distances, quantile)) if distances.size else 0.0
        return cls(mean=mean, inv_covariance=inv, threshold=max(threshold, 1e-6))

    def accepts(self, feature: np.ndarray) -> bool:
        """Whether the feature vector falls inside the Gaussian envelope."""
        centred = feature - self.mean
        distance = float(np.sqrt(centred @ self.inv_covariance @ centred))
        return distance <= self.threshold


def _streak_rule(required: int) -> Callable[[PartialPrediction], bool]:
    """A fresh consecutive-agreement rule: commit once ``required`` accepts agree.

    An accepted prediction extends the streak if its label matches the
    previous accepted one and starts a new streak otherwise; a rejected one
    breaks the streak.
    """
    streak_label: object = None
    streak = 0

    def should_trigger(partial: PartialPrediction) -> bool:
        nonlocal streak_label, streak
        if not partial.ready:
            streak_label = None
            streak = 0
            return False
        if partial.label == streak_label:
            streak += 1
        else:
            streak_label = partial.label
            streak = 1
        return streak >= required

    return should_trigger


class TEASERClassifier(ProbabilisticEarlyClassifier):
    """The TEASER early classifier.

    Parameters
    ----------
    n_checkpoints:
        Number of snapshot lengths (20 in the original, one every 5 %).
    consecutive_required:
        The agreement requirement ``v``.  ``None`` (default) selects it from
        ``candidate_v`` on the training data by maximising the harmonic mean
        of accuracy and earliness.
    candidate_v:
        Candidate values of ``v`` examined when ``consecutive_required`` is None.
    master_quantile:
        Quantile of the training acceptance-feature distances used as the
        one-class envelope threshold (larger accepts more readily).
    min_checkpoint_accuracy:
        A snapshot only gets a master (i.e. is only allowed to accept
        predictions) if the slave's leave-one-out training accuracy at that
        snapshot reaches this floor.  Snapshots taken before the
        class-discriminating part of the exemplar are coin flips, and a
        one-class model fitted to coin-flip feature vectors cannot tell good
        predictions from bad ones; refusing to accept from such snapshots is
        what keeps the earliest checkpoints from firing on noise.
    """

    def __init__(
        self,
        n_checkpoints: int = 20,
        consecutive_required: int | None = None,
        candidate_v: Sequence[int] = (1, 2, 3, 4, 5),
        master_quantile: float = 0.95,
        min_checkpoint_accuracy: float = 0.7,
    ) -> None:
        super().__init__()
        if n_checkpoints < 2:
            raise ValueError("n_checkpoints must be at least 2")
        if consecutive_required is not None and consecutive_required < 1:
            raise ValueError("consecutive_required must be >= 1")
        if not candidate_v or any(v < 1 for v in candidate_v):
            raise ValueError("candidate_v must contain positive integers")
        if not 0.5 <= master_quantile <= 1.0:
            raise ValueError("master_quantile must be in [0.5, 1.0]")
        if not 0.0 <= min_checkpoint_accuracy <= 1.0:
            raise ValueError("min_checkpoint_accuracy must be in [0, 1]")
        self.n_checkpoints = n_checkpoints
        self.requested_consecutive = consecutive_required
        self.candidate_v = tuple(candidate_v)
        self.master_quantile = master_quantile
        self.min_checkpoint_accuracy = min_checkpoint_accuracy
        self._checkpoints: list[int] = []
        self._masters: dict[int, _OneClassGaussian | None] = {}
        self.consecutive_required_: int | None = None

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "TEASERClassifier":
        """Train slaves, masters and the consecutive-agreement requirement ``v``."""
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        self._checkpoints = default_checkpoints(data.shape[1], self.n_checkpoints)
        self._model = PrefixProbabilisticClassifier(checkpoints=self._checkpoints).fit(
            data, label_arr
        )
        # Every training step below consumes the same leave-one-out slave
        # evaluations (one per exemplar per checkpoint); computing the whole
        # table in one incremental prefix-distance sweep is what makes
        # training O(n^2 * L) instead of O(n^2 * L * n_checkpoints).
        loo = self._model.predict_proba_prefixes(
            data, self._checkpoints, exclude_self=True
        )
        self._fit_masters(data, label_arr, loo)
        if self.requested_consecutive is not None:
            self.consecutive_required_ = int(self.requested_consecutive)
        else:
            self.consecutive_required_ = self._select_consecutive(data, label_arr, loo)
        return self

    def _acceptance_feature(self, probabilities: dict, margin: float) -> np.ndarray:
        ordered = [probabilities[cls] for cls in self.classes_]
        return np.asarray(ordered + [margin], dtype=float)

    def _fit_masters(self, data: np.ndarray, labels: np.ndarray, loo: dict) -> None:
        """Train the per-checkpoint one-class acceptance models.

        The slave is evaluated on each training exemplar with that exemplar
        excluded from the neighbour search (leave-one-out), otherwise every
        training prediction is trivially correct and the master learns an
        acceptance region that bears no relation to unseen data.  ``loo`` is
        the precomputed table from
        :meth:`PrefixProbabilisticClassifier.predict_proba_prefixes`.
        """
        self._masters = {}
        for checkpoint in self._checkpoints:
            features = []
            n_correct = 0
            for result, label in zip(loo[checkpoint], labels):
                if result.label == label:
                    n_correct += 1
                    features.append(self._acceptance_feature(result.probabilities, result.margin))
            accuracy = n_correct / data.shape[0]
            if accuracy >= self.min_checkpoint_accuracy and len(features) >= 3:
                self._masters[checkpoint] = _OneClassGaussian.fit(
                    np.asarray(features), self.master_quantile
                )
            else:
                # Either the snapshot is uninformative (near coin-flip slave
                # accuracy) or there are too few correct training predictions
                # to fit an envelope: the master rejects everything here.
                self._masters[checkpoint] = None

    def _select_consecutive(self, data: np.ndarray, labels: np.ndarray, loo: dict) -> int:
        """Pick v maximising the harmonic mean of training accuracy and earliness.

        As with the master training, every training exemplar is evaluated
        with itself excluded from the slave's neighbour search.  The
        per-(exemplar, checkpoint) partial predictions do not depend on
        ``v``, so the precomputed ``loo`` table is gated through the masters
        once and each candidate ``v`` only replays the streak rule of
        :meth:`_trigger_rule`.
        """
        full_length = data.shape[1]
        partials_per_exemplar = [
            [self._partial(loo[checkpoint][index], checkpoint) for checkpoint in self._checkpoints]
            for index in range(data.shape[0])
        ]
        best_v = self.candidate_v[0]
        best_score = -1.0
        for v in self.candidate_v:
            predictions = []
            earliness = []
            for partials in partials_per_exemplar:
                should_trigger = _streak_rule(v)
                trigger = next((p for p in partials if should_trigger(p)), None)
                if trigger is not None:
                    predictions.append(trigger.label)
                    earliness.append(trigger.prefix_length / full_length)
                else:
                    predictions.append(partials[-1].label)
                    earliness.append(1.0)
            accuracy = float(np.mean(np.asarray(predictions) == labels))
            score = harmonic_mean_accuracy_earliness(accuracy, float(np.mean(earliness)))
            if score > best_score:
                best_score = score
                best_v = v
        return int(best_v)

    # ------------------------------------------------------------ prediction
    def checkpoints(self) -> list[int]:
        """The snapshot lengths (one per slave/master pair)."""
        self._require_fitted()
        return list(self._checkpoints)

    def _ready(self, result: PrefixProbabilities, length: int) -> bool:
        """Whether the master of the nearest snapshot accepts the slave's result.

        ``ready`` here means "this snapshot's master accepted the slave
        prediction"; the consecutive-agreement requirement is the stopping
        rule of :meth:`_trigger_rule`, which ``predict_early`` and
        ``predict_early_batch`` apply on top.
        """
        master = self._masters.get(nearest_checkpoint(self._checkpoints, length))
        return master is not None and master.accepts(
            self._acceptance_feature(result.probabilities, result.margin)
        )

    def _trigger_rule(self) -> Callable[[PartialPrediction], bool]:
        """The consecutive-agreement rule as a stateful stopping rule.

        The walks evaluate the snapshot checkpoints through the base class;
        this rule commits once the same class has been accepted ``v`` times
        in a row.
        """
        self._require_fitted()
        assert self.consecutive_required_ is not None
        return _streak_rule(int(self.consecutive_required_))
