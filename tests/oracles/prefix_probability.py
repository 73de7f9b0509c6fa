"""Prefix-probability oracle: one prefix, one distance vector.

* :func:`predict_proba_prefix` gives the class probabilities of a single
  prefix from a ``(1, n_train)`` distance vector, with an optional training
  exemplar left out of the neighbour search.  Each class's evidence is its
  nearest exemplar's distance, taken by a scan of its own.
  ``PrefixProbabilisticClassifier.predict_proba_batch`` must match it row by
  row exactly, and ``predict_proba_prefixes(exclude_self=True)`` must give
  its labels, and its probabilities to round-off, with ``exclude=i``.

The function takes the model in place of ``self``.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.prefix_probability import (
    PrefixProbabilisticClassifier,
    PrefixProbabilities,
)
from repro.distance.euclidean import pairwise_euclidean


def predict_proba_prefix(
    model: PrefixProbabilisticClassifier,
    prefix: np.ndarray,
    exclude: int | None = None,
) -> PrefixProbabilities:
    """Class probabilities for one observed prefix.

    ``prefix`` is 1-D ``(length,)`` for a univariate model and 2-D
    ``(length, n_channels)`` otherwise.  ``exclude`` is the index of a
    training exemplar to leave out of the neighbour search, for evaluating
    the model on its own training data.
    """
    arr = np.asarray(prefix, dtype=float)
    length = arr.shape[0]
    distances = pairwise_euclidean(arr[None], model._train[:, :length])[0]
    if exclude is not None:
        distances = distances.copy()
        distances[exclude] = np.inf

    # A class's evidence is its nearest exemplar's distance, found here by
    # a plain scan.
    class_evidence = dict.fromkeys(model.classes_, np.inf)
    for distance, label in zip(distances, model._labels.tolist()):
        if distance < class_evidence[label]:
            class_evidence[label] = float(distance)
    return model._result_from_evidence(class_evidence, length)
