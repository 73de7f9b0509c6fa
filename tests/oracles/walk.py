"""Per-row walk oracle: one exemplar, one checkpoint at a time.

* :func:`predict_early_reference` walks one exemplar's checkpoints in
  increasing order under the classifier's own stopping rule and stops at the
  trigger point.  Each checkpoint is ``model.predict_partial(series[:length])``,
  except for ECTS, whose checkpoints come from one
  :class:`~repro.distance.engine.PrefixSweep` over the row, advanced
  checkpoint by checkpoint, and :func:`ects_partial_reference`.
  ``predict_early``, ``predict_early_batch`` and ``ClassifierStream`` must
  reach the same outcomes.
* :func:`ects_partial_reference` turns one row's 1-NN distances into ECTS's
  :class:`~repro.classifiers.base.PartialPrediction` with a stable argsort and
  a masked minimum, independent of the vectorised statistics of
  ``ECTSClassifier._checkpoint``.  The distances of the batched walk are
  bit-identical to those of this sweep, so the ECTS outcomes must be too.

Each function takes the model in place of ``self``.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, EarlyPrediction, PartialPrediction
from repro.classifiers.ects import ECTSClassifier


def ects_partial_reference(
    model: ECTSClassifier, distances: np.ndarray, length: int
) -> PartialPrediction:
    """ECTS's prediction from one row's 1-NN ``distances`` at prefix ``length``."""
    order = np.argsort(distances, kind="stable")
    nearest = int(order[0])
    label = model._labels[nearest]
    # Ready once the nearest neighbour is an eligible exemplar whose MPL has
    # been reached.
    ready = bool(model._eligible[nearest] and model.mpl_[nearest] <= length)
    # Confidence: how much closer the nearest neighbour is than the best
    # neighbour of any other class (fitting needs two classes, so there is
    # always one).
    best_other = float(np.min(distances[model._labels != label]))
    best_same = float(distances[nearest])
    confidence = best_other / (best_other + best_same + 1e-12)
    return model._partial_from_statistics(label, ready, confidence, length)


def predict_early_reference(
    model: BaseEarlyClassifier, series: np.ndarray, keep_history: bool = False
) -> EarlyPrediction:
    """Walk ``series`` checkpoint by checkpoint until the stopping rule fires."""
    arr = model._validate_prefix(series)
    if isinstance(model, ECTSClassifier):
        sweep = model._engine.open(arr)

        def evaluate(length: int) -> PartialPrediction:
            distances = np.sqrt(sweep.advance_to(length)[0])
            return ects_partial_reference(model, distances, length)

    else:

        def evaluate(length: int) -> PartialPrediction:
            return model.predict_partial(arr[:length])

    history: list[PartialPrediction] = []
    last: PartialPrediction | None = None
    should_trigger = model._trigger_rule()
    for length in model.checkpoints():
        if length > arr.shape[0]:
            break
        partial = evaluate(length)
        if keep_history:
            history.append(partial)
        last = partial
        if should_trigger(partial):
            return EarlyPrediction(
                label=partial.label,
                trigger_length=length,
                series_length=arr.shape[0],
                triggered=True,
                confidence=partial.confidence,
                history=tuple(history),
            )
    if last is None:
        raise ValueError("series is shorter than the first checkpoint")
    return EarlyPrediction(
        label=last.label,
        trigger_length=arr.shape[0],
        series_length=arr.shape[0],
        triggered=False,
        confidence=last.confidence,
        history=tuple(history),
    )
