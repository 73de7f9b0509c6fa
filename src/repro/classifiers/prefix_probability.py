"""Per-prefix-length probabilistic classification.

Six of the early classifiers (TEASER's slave classifiers, ECDIRE, the
cost-aware rule, the probability-threshold model of Fig. 3 and the
full-length and fixed-truncation baselines) need the same primitive: *given
a prefix of length L, produce class probabilities*.  The published systems
use a variety of base classifiers for this (1-NN, WEASEL, logistic
regression); following the UCR-evaluation tradition -- and to keep the
reproduction dependency-free -- this module uses 1-NN evidence (each
class's nearest Euclidean distance) converted into probabilities with a
distance softmax whose temperature is calibrated per prefix length on the
training data.

The calibration matters: raw distances grow with the prefix length, so a
single global temperature would make early probabilities artificially sharp
or flat.  Calibrating per length is also what keeps the model honest about
how little it knows early on.

:class:`ProbabilisticEarlyClassifier` is the common base of those six
classifiers: it evaluates the primitive at their checkpoints, and each of
them states only its checkpoints and its stopping rule.
"""

from __future__ import annotations

import bisect
from abc import abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier, BatchCheckpoint, PartialPrediction
from repro.distance.engine import iter_prefix_distances
from repro.distance.euclidean import pairwise_euclidean

__all__ = [
    "PrefixProbabilisticClassifier",
    "PrefixProbabilities",
    "ProbabilisticEarlyClassifier",
    "nearest_checkpoint",
]


@dataclass(frozen=True)
class PrefixProbabilities:
    """Class probabilities derived from a prefix of an incoming exemplar."""

    probabilities: dict
    label: object
    margin: float
    prefix_length: int

    @property
    def confidence(self) -> float:
        """Probability of the winning class."""
        return float(self.probabilities[self.label])


def nearest_checkpoint(checkpoints: Sequence[int], length: int) -> int:
    """The checkpoint closest to ``length``; the lower one on a tie.

    ``checkpoints`` must be non-empty and strictly increasing.  A bisection
    gives the same answer as a ``min`` scan over ``abs(c - length)``, whose
    first minimum is the lower of two equidistant checkpoints.
    """
    index = bisect.bisect_left(checkpoints, length)
    if index == 0:
        return checkpoints[0]
    if index == len(checkpoints):
        return checkpoints[-1]
    lower, upper = checkpoints[index - 1], checkpoints[index]
    return lower if length - lower <= upper - length else upper


class PrefixProbabilisticClassifier:
    """1-NN class probabilities at arbitrary prefix lengths.

    A class's evidence is its nearest training exemplar's Euclidean distance
    to the prefix.

    Parameters
    ----------
    checkpoints:
        Prefix lengths for which temperatures are calibrated.  Queries at
        other lengths use the nearest calibrated checkpoint's temperature.
        ``None`` (default) calibrates every length from ``min_length`` to the
        full training length in steps of ``max(1, length // 30)``.
    min_length:
        Smallest usable prefix length.
    """

    def __init__(
        self,
        checkpoints: Sequence[int] | None = None,
        min_length: int = 3,
    ) -> None:
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        self.min_length = min_length
        self._requested_checkpoints = list(checkpoints) if checkpoints is not None else None
        self._train: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._classes: tuple = ()
        self._temperatures: dict[int, float] = {}

    # ------------------------------------------------------------ fitting
    def fit(self, series: np.ndarray, labels: Sequence) -> "PrefixProbabilisticClassifier":
        """Store the training exemplars and calibrate per-length temperatures."""
        data = np.asarray(series, dtype=float)
        label_arr = np.asarray(labels)
        if data.ndim not in (2, 3):
            raise ValueError(
                "series must be 2-D (n_exemplars, length) or 3-D "
                f"(n_exemplars, length, n_channels); got shape {data.shape}"
            )
        if data.ndim == 3 and data.shape[2] == 1:
            # Single-channel 3-D input runs the exact univariate path.
            data = data[:, :, 0]
        if label_arr.shape[0] != data.shape[0]:
            raise ValueError("labels must have one entry per exemplar")
        length = data.shape[1]
        if length < self.min_length:
            raise ValueError(
                f"the series have {length} samples, fewer than "
                f"min_length={self.min_length}: no prefix is long enough to classify"
            )
        self._train = data
        self._labels = label_arr
        self._classes = tuple(np.unique(label_arr).tolist())

        if self._requested_checkpoints is None:
            step = max(1, length // 30)
            checkpoints = list(range(self.min_length, length + 1, step))
            if checkpoints[-1] != length:
                checkpoints.append(length)
        else:
            checkpoints = sorted({int(c) for c in self._requested_checkpoints})
            if any(c < 1 or c > length for c in checkpoints):
                raise ValueError("checkpoints must lie within the training length")
        self._temperatures = {}
        # One incremental sweep yields every checkpoint's self-distance
        # matrix for the price of the full-length one (PrefixDistanceEngine).
        for checkpoint, distances in iter_prefix_distances(data, data, checkpoints):
            np.fill_diagonal(distances, np.inf)
            # The temperature is the typical distance between an exemplar and
            # its nearest neighbour at this prefix length: the scale of
            # "distance differences that are meaningful" rather than the scale
            # of distances overall.  Using the overall median would make the
            # probabilities far too flat to ever cross a user threshold.
            nearest = np.min(distances, axis=1)
            self._temperatures[checkpoint] = max(float(np.median(nearest)), 1e-6)
        return self

    @property
    def classes_(self) -> tuple:
        """Class labels seen during :meth:`fit`, sorted."""
        return self._classes

    @property
    def train_length_(self) -> int:
        """Length of the training exemplars, in time steps."""
        if self._train is None:
            raise RuntimeError("classifier must be fitted before use")
        return int(self._train.shape[1])

    @property
    def n_channels_(self) -> int:
        """Number of channels of the training exemplars (1 for univariate)."""
        if self._train is None:
            raise RuntimeError("classifier must be fitted before use")
        return int(self._train.shape[2]) if self._train.ndim == 3 else 1

    def _validate_rows(self, rows: np.ndarray, name: str = "rows") -> np.ndarray:
        """Validate a query batch against the fitted channel count."""
        data = np.asarray(rows, dtype=float)
        channels = self.n_channels_
        if channels == 1:
            if data.ndim == 3 and data.shape[2] == 1:
                data = data[:, :, 0]
            if data.ndim != 2:
                raise ValueError(
                    f"{name} must be a 2-D (n_rows, length) array for "
                    f"this univariate model; got shape {data.shape}"
                )
        elif data.ndim != 3 or data.shape[2] != channels:
            raise ValueError(
                f"{name} must be a 3-D (n_rows, length, n_channels) array "
                f"with n_channels={channels} (axis 0 = row, axis 1 = time, "
                f"axis 2 = channel); got shape {data.shape}"
            )
        return data

    @property
    def calibrated_checkpoints(self) -> list[int]:
        """Prefix lengths with a calibrated softmax temperature."""
        return sorted(self._temperatures)

    # ------------------------------------------------------------ inference
    def _temperature_for(self, length: int) -> float:
        return self._temperatures[nearest_checkpoint(self.calibrated_checkpoints, length)]

    def _result_from_evidence(self, class_evidence: dict, length: int) -> PrefixProbabilities:
        """Convert per-class distance evidence into calibrated probabilities."""
        temperature = self._temperature_for(length)
        scores = np.asarray([-class_evidence[cls] / temperature for cls in self._classes])
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        probabilities = {cls: float(w) for cls, w in zip(self._classes, weights)}

        ordered = sorted(probabilities.items(), key=lambda item: item[1], reverse=True)
        label = ordered[0][0]
        margin = ordered[0][1] - (ordered[1][1] if len(ordered) > 1 else 0.0)
        return PrefixProbabilities(
            probabilities=probabilities,
            label=label,
            margin=float(margin),
            prefix_length=length,
        )

    def predict_proba_batch(
        self, rows: np.ndarray, lengths: Sequence[int]
    ) -> dict[int, list[PrefixProbabilities]]:
        """Class probabilities of a batch of rows at a few prefix lengths.

        One vectorised :func:`repro.distance.euclidean.pairwise_euclidean`
        matrix per requested length answers every row at once, and a class's
        evidence is the minimum of its columns.  This is the kernel every
        :class:`ProbabilisticEarlyClassifier` checkpoint runs, for a batch
        and for a single prefix alike.

        Distinct from :meth:`predict_proba_prefixes`, which serves *training*
        sweeps over dense length grids from one incremental engine pass and
        supports leave-one-out; here the lengths are the handful of inference
        checkpoints.

        Parameters
        ----------
        rows:
            2-D array ``(n_rows, length)`` of query series (prefixes are
            taken per requested length).
        lengths:
            Prefix lengths to evaluate, each within ``[min_length,
            train_length_]``.

        Returns
        -------
        dict
            Mapping ``length -> [PrefixProbabilities for each row]``.
        """
        if self._train is None or self._labels is None:
            raise RuntimeError("classifier must be fitted before use")
        data = self._validate_rows(rows)
        lengths = [int(v) for v in lengths]
        if lengths and min(lengths) < self.min_length:
            raise ValueError(f"prefixes must have at least {self.min_length} samples")
        if lengths and max(lengths) > self.train_length_:
            raise ValueError("prefix is longer than the training exemplars")
        if data.shape[1] < max(lengths, default=0):
            raise ValueError("rows are shorter than the longest requested prefix")

        class_masks = [self._labels == cls for cls in self._classes]
        results: dict[int, list[PrefixProbabilities]] = {}
        for length in lengths:
            distances = pairwise_euclidean(data[:, :length], self._train[:, :length])
            evidence_per_class = [distances[:, mask].min(axis=1) for mask in class_masks]
            results[length] = [
                self._result_from_evidence(
                    {
                        cls: float(evidence_per_class[ci][row])
                        for ci, cls in enumerate(self._classes)
                    },
                    length,
                )
                for row in range(data.shape[0])
            ]
        return results

    def predict_proba_prefixes(
        self,
        rows: np.ndarray,
        lengths: Sequence[int],
        exclude_self: bool = False,
    ) -> dict[int, list[PrefixProbabilities]]:
        """Batched probabilities for many series at many prefix lengths.

        This is the hot path of TEASER's master training / ``v`` selection,
        ECDIRE's cross-validated safe-timestamp estimation and the cost-aware
        rule's error estimates: every training exemplar evaluated at every
        checkpoint.  All distances come
        from a single incremental sweep of
        :func:`repro.distance.engine.iter_prefix_distances`, so the whole
        table costs one full-length distance matrix instead of one matrix
        *per checkpoint*.

        Parameters
        ----------
        rows:
            2-D array ``(n_rows, length)`` of query series.
        lengths:
            Strictly increasing prefix lengths to evaluate.
        exclude_self:
            Leave-one-out mode: ``rows`` must be the training set itself
            (same shape), and row ``i`` ignores training exemplar ``i`` in
            the neighbour search.  This is the honest way to evaluate the
            model on its own training data: otherwise every exemplar finds
            itself at distance zero and the evaluation is meaninglessly
            optimistic.

        Returns
        -------
        dict
            Mapping ``length -> [PrefixProbabilities for each row]``.
        """
        if self._train is None or self._labels is None:
            raise RuntimeError("classifier must be fitted before use")
        data = self._validate_rows(rows)
        if exclude_self and data.shape != self._train.shape:
            raise ValueError(
                "exclude_self requires rows to be the training set itself"
            )
        lengths = sorted({int(v) for v in lengths})
        if lengths and lengths[0] < self.min_length:
            raise ValueError(f"prefixes must have at least {self.min_length} samples")

        class_masks = [self._labels == cls for cls in self._classes]
        results: dict[int, list[PrefixProbabilities]] = {}
        for length, distances in iter_prefix_distances(data, self._train, lengths):
            if exclude_self:
                np.fill_diagonal(distances, np.inf)
            evidence_per_class = [distances[:, mask].min(axis=1) for mask in class_masks]
            results[length] = [
                self._result_from_evidence(
                    {
                        cls: float(evidence_per_class[ci][row])
                        for ci, cls in enumerate(self._classes)
                    },
                    length,
                )
                for row in range(data.shape[0])
            ]
        return results


class ProbabilisticEarlyClassifier(BaseEarlyClassifier):
    """An early classifier that commits on :class:`PrefixProbabilisticClassifier` evidence.

    TEASER, ECDIRE, the cost-aware rule, the probability-threshold model and
    the full-length and fixed-truncation baselines differ only in their
    checkpoints and in when a prediction counts as *ready*.  A subclass fits
    ``self._model`` in :meth:`fit` and writes :meth:`checkpoints` and
    :meth:`_ready`.  Both walks then run one evaluator:
    ``predict_early_batch`` evaluates each checkpoint for the whole batch,
    and :meth:`predict_partial` evaluates one prefix the same way, as a
    batch of one row at its own length.

    Parameters
    ----------
    min_length:
        Smallest prefix length the model classifies.
    """

    def __init__(self, min_length: int = 3) -> None:
        super().__init__()
        self._model = PrefixProbabilisticClassifier(min_length=min_length)

    @abstractmethod
    def _ready(self, result: PrefixProbabilities, length: int) -> bool:
        """The stopping rule: whether ``result``, seen after ``length`` samples, commits."""

    def predict_partial(self, prefix: np.ndarray) -> PartialPrediction:
        """Classify a prefix; ``ready`` is the stopping rule at the prefix's length."""
        arr = self._validate_prefix(prefix)
        return self._checkpoint(arr[None], arr.shape[0]).partial(0)

    def _batch_partial_evaluators(self, data: np.ndarray) -> list[BatchCheckpoint]:
        """One checkpoint evaluator per checkpoint that fits the rows.

        An empty list, when no checkpoint fits, makes ``predict_early_batch``
        raise its "shorter than the first checkpoint" error.
        """
        return [
            self._checkpoint(data, length)
            for length in self.checkpoints()
            if length <= data.shape[1]
        ]

    def _checkpoint(self, rows: np.ndarray, length: int) -> BatchCheckpoint:
        """Every row's evidence at ``length``, computed when first asked for.

        The walk asks only once a row reaches ``length``, so checkpoints past
        every row's trigger point never run
        :meth:`PrefixProbabilisticClassifier.predict_proba_batch`.
        """
        cache: list[PrefixProbabilities] = []

        def results() -> list[PrefixProbabilities]:
            if not cache:
                cache.extend(self._model.predict_proba_batch(rows, [length])[length])
            return cache

        def partial(i: int) -> PartialPrediction:
            return self._partial(results()[i], length)

        def ready(indices: np.ndarray) -> np.ndarray:
            found = results()
            return np.fromiter(
                (self._ready(found[i], length) for i in indices),
                dtype=bool,
                count=len(indices),
            )

        return BatchCheckpoint(length=length, partial=partial, ready=ready)

    def _partial(self, result: PrefixProbabilities, length: int) -> PartialPrediction:
        """``result`` at ``length`` as the :class:`PartialPrediction` a walk reads."""
        return PartialPrediction(
            label=result.label,
            ready=self._ready(result, length),
            confidence=result.confidence,
            prefix_length=length,
            probabilities=result.probabilities,
        )
