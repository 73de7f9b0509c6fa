"""Prefix-length accuracy curves (Fig. 9).

    "We can keep only 30.6% of the data, and get the same accuracy as using
    all the data.  We can keep only 33.3% of the data, and get better accuracy
    than using all the data."

The curve is computed with a plain 1-NN classifier whose truncated exemplars
are *correctly re-z-normalised per prefix* -- i.e. without peeking.  The point
of the exercise (and of exposing it as part of the core API) is the paper's
recommendation: anyone proposing an ETSC model must first show what it adds
beyond this trivial baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.ucr_format import UCRDataset
from repro.evaluation.runner import prefix_accuracy_curve

__all__ = ["PrefixAccuracyCurve", "compute_prefix_accuracy_curve"]


@dataclass(frozen=True)
class PrefixAccuracyCurve:
    """Hold-out accuracy as a function of the prefix length.

    Attributes
    ----------
    lengths:
        The evaluated prefix lengths, increasing.
    accuracies:
        Hold-out accuracy at each length.
    series_length:
        The full exemplar length.
    renormalized:
        Whether prefixes were re-z-normalised (the honest treatment).
    """

    lengths: tuple[int, ...]
    accuracies: tuple[float, ...]
    series_length: int
    renormalized: bool

    def __post_init__(self) -> None:
        if len(self.lengths) != len(self.accuracies):
            raise ValueError("lengths and accuracies must align")
        if not self.lengths:
            raise ValueError("curve must contain at least one point")
        if list(self.lengths) != sorted(self.lengths):
            raise ValueError("lengths must be increasing")

    @property
    def error_rates(self) -> tuple[float, ...]:
        """Error rate (1 - accuracy) at each length: the y-axis of Fig. 9."""
        return tuple(1.0 - a for a in self.accuracies)

    @property
    def full_length_accuracy(self) -> float:
        """Accuracy at the longest evaluated prefix (the classic classifier)."""
        return self.accuracies[-1]

    def accuracy_at(self, length: int) -> float:
        """Accuracy at one of the evaluated lengths."""
        try:
            return self.accuracies[self.lengths.index(length)]
        except ValueError as exc:
            raise KeyError(f"length {length} was not evaluated") from exc

    def best_length(self) -> int:
        """The prefix length with the highest accuracy (ties go to the shortest)."""
        best = int(np.argmax(self.accuracies))
        return self.lengths[best]

    def shortest_length_matching_full(self, tolerance: float = 0.0) -> int:
        """Shortest prefix whose accuracy is within ``tolerance`` of full length.

        With the default tolerance of 0 this is the "30.6% of the data"
        number; the returned value is a length in samples (divide by
        ``series_length`` for the fraction).
        """
        target = self.full_length_accuracy - tolerance
        for length, accuracy in zip(self.lengths, self.accuracies):
            if accuracy >= target:
                return length
        return self.lengths[-1]

    def fraction_needed(self, tolerance: float = 0.0) -> float:
        """``shortest_length_matching_full`` expressed as a fraction of the exemplar."""
        return self.shortest_length_matching_full(tolerance) / self.series_length

    def beats_full_length(self) -> bool:
        """Whether some proper prefix strictly beats the full-length accuracy."""
        return any(
            accuracy > self.full_length_accuracy
            for length, accuracy in zip(self.lengths, self.accuracies)
            if length < self.series_length
        )

    def as_rows(self) -> list[tuple[int, float, float]]:
        """(length, accuracy, error rate) rows for printing or plotting."""
        return [
            (length, accuracy, 1.0 - accuracy)
            for length, accuracy in zip(self.lengths, self.accuracies)
        ]


def compute_prefix_accuracy_curve(
    train: UCRDataset,
    test: UCRDataset,
    lengths: Sequence[int] | None = None,
    renormalize: bool = True,
) -> PrefixAccuracyCurve:
    """Compute the Fig. 9 curve for a train/test pair.

    Parameters
    ----------
    train, test:
        Datasets with the same series length.  They may be raw or
        z-normalised; when ``renormalize`` is True each truncated prefix is
        re-normalised anyway, which is the honest treatment.
    lengths:
        Prefix lengths to evaluate; defaults to every 2 samples from 20 to the
        full length, mirroring the figure's x-axis.
    renormalize:
        Whether to re-z-normalise each prefix (Fig. 9 does).  When ``False``
        the sweep runs on the incremental
        :class:`repro.distance.engine.PrefixDistanceEngine` fast path, which
        answers every length for the cost of one full-length distance matrix.
    """
    full_length = train.series_length
    if lengths is None:
        start = min(20, full_length)
        lengths = list(range(start, full_length + 1, 2))
        if lengths[-1] != full_length:
            lengths.append(full_length)
    lengths = sorted({int(length) for length in lengths})
    curve = prefix_accuracy_curve(train, test, lengths, renormalize=renormalize)
    return PrefixAccuracyCurve(
        lengths=tuple(lengths),
        accuracies=tuple(curve[length] for length in lengths),
        series_length=full_length,
        renormalized=renormalize,
    )
