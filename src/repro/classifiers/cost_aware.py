"""Cost-aware (non-myopic) early classification.

The paper notes that "a handful [of ETSC methods] incorporates some awareness
of misclassification costs [12], [19]" -- Tavenard & Malinowski's cost-aware
formulation and Dachraoui et al. / Achenchabe et al.'s "economy" approach, in
which stopping is framed as minimising

    expected cost = P(misclassification) * C_m  +  C_d * (fraction observed)

and the decision to wait is taken *non-myopically*: the model estimates, from
training data, how much more accurate it will be at each future checkpoint and
only keeps waiting while some future checkpoint has a lower expected total
cost than stopping now.

This implementation follows that structure with two simplifications relative
to the cited papers: the future error estimate is the leave-one-out error of
the base classifier at each checkpoint (unconditioned, where the originals
condition on a clustering of the current posterior), and the
misclassification probability "now" is taken from the calibrated posterior
of the nearest-neighbour base classifier.

The class exists for two reasons: it completes the family of published
stopping rules the paper surveys, and it makes the paper's Appendix B point
self-contained -- even a model that *optimises* a cost trade-off on UCR-format
data knows nothing about the false positives waiting for it on a stream,
because its cost model never sees a window that contains no event at all.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.classifiers.base import default_checkpoints
from repro.classifiers.prefix_probability import (
    PrefixProbabilisticClassifier,
    PrefixProbabilities,
    ProbabilisticEarlyClassifier,
)

__all__ = ["CostAwareEarlyClassifier"]


class CostAwareEarlyClassifier(ProbabilisticEarlyClassifier):
    """Stop when no future checkpoint promises a lower expected cost.

    Parameters
    ----------
    misclassification_cost:
        Cost ``C_m`` of committing to the wrong class.
    delay_cost_per_unit:
        Cost ``C_d`` of observing the entire exemplar; the delay cost of
        stopping after a fraction ``f`` of the exemplar is ``C_d * f``.
    n_checkpoints:
        Number of prefix lengths examined.
    """

    #: Univariate-only: the per-length statistics this algorithm is
    #: built on are defined over scalar samples, so multichannel
    #: (n, L, d>1) training data is rejected with a named-axis error.
    supports_multichannel = False

    def __init__(
        self,
        misclassification_cost: float = 1.0,
        delay_cost_per_unit: float = 1.0,
        n_checkpoints: int = 20,
    ) -> None:
        super().__init__()
        if misclassification_cost <= 0:
            raise ValueError("misclassification_cost must be positive")
        if delay_cost_per_unit < 0:
            raise ValueError("delay_cost_per_unit must be non-negative")
        if n_checkpoints < 2:
            raise ValueError("n_checkpoints must be at least 2")
        self.misclassification_cost = misclassification_cost
        self.delay_cost_per_unit = delay_cost_per_unit
        self.n_checkpoints = n_checkpoints
        self._checkpoints: list[int] = []
        self.expected_error_: dict[int, float] = {}

    # ------------------------------------------------------------ training
    def fit(self, series: np.ndarray, labels: Sequence) -> "CostAwareEarlyClassifier":
        """Fit the base probabilistic classifier and estimate per-checkpoint error."""
        data, label_arr = self._validate_training_data(series, labels)
        self._store_training_shape(data, label_arr)
        self._checkpoints = default_checkpoints(data.shape[1], self.n_checkpoints)
        self._model = PrefixProbabilisticClassifier(checkpoints=self._checkpoints).fit(
            data, label_arr
        )
        self.expected_error_ = self._leave_one_out_error(data, label_arr)
        return self

    def _leave_one_out_error(self, data: np.ndarray, labels: np.ndarray) -> dict[int, float]:
        """Leave-one-out error rate of the base classifier at each checkpoint.

        The whole table comes from one incremental prefix-distance sweep
        (:meth:`PrefixProbabilisticClassifier.predict_proba_prefixes`).
        """
        loo = self._model.predict_proba_prefixes(data, self._checkpoints, exclude_self=True)
        errors: dict[int, float] = {}
        for checkpoint in self._checkpoints:
            wrong = sum(1 for result, label in zip(loo[checkpoint], labels) if result.label != label)
            errors[checkpoint] = wrong / data.shape[0]
        return errors

    # ------------------------------------------------------------ costs
    def _delay_cost(self, length: int) -> float:
        return self.delay_cost_per_unit * (length / self.train_length_)

    def expected_cost_of_stopping_now(self, confidence: float, length: int) -> float:
        """Expected cost of committing after ``length`` samples with the given confidence."""
        if not 0.0 <= confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        return (1.0 - confidence) * self.misclassification_cost + self._delay_cost(length)

    def expected_cost_of_stopping_at(self, checkpoint: int) -> float:
        """Training-estimated expected cost of waiting until a future checkpoint."""
        if checkpoint not in self.expected_error_:
            raise KeyError(f"{checkpoint} is not one of the fitted checkpoints")
        return (
            self.expected_error_[checkpoint] * self.misclassification_cost
            + self._delay_cost(checkpoint)
        )

    # ------------------------------------------------------------ prediction
    def checkpoints(self) -> list[int]:
        """Prefix lengths with a calibrated expected-error estimate."""
        self._require_fitted()
        return list(self._checkpoints)

    def _ready(self, result: PrefixProbabilities, length: int) -> bool:
        """Ready once waiting costs more than deciding now; always at full length."""
        if length >= self.train_length_:
            return True
        cost_now = self.expected_cost_of_stopping_now(result.confidence, length)
        best_future = min(
            (self.expected_cost_of_stopping_at(c) for c in self._checkpoints if c > length),
            default=float("inf"),
        )
        return cost_now <= best_future
