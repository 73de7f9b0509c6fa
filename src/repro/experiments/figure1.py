"""Figure 1: samples of data in the UCR format.

The figure shows utterances of *cat* and *dog* ("MFCC Coefficient 2"), all of
the same length and carefully aligned.  The experiment regenerates such a
dataset and reports the properties the figure is meant to convey: equal
length, alignment (within-class traces are highly correlated sample-by-
sample), and clean class separability -- i.e. exactly the idealised conditions
under which ETSC results are usually reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.ucr_format import UCRDataset
from repro.data.words import make_word_dataset
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

__all__ = ["Figure1Prepared", "Figure1Result", "prepare", "compute", "metrics"]


@dataclass(frozen=True)
class Figure1Result:
    """Summary of the regenerated Fig. 1 dataset.

    Attributes
    ----------
    dataset:
        The generated UCR-format word dataset.
    series_length:
        Common exemplar length (the figure's x-axis extent).
    class_counts:
        Exemplars per class.
    mean_within_class_correlation:
        Mean Pearson correlation between exemplars of the same class --
        the quantitative form of "carefully aligned".
    holdout_accuracy:
        1-NN accuracy on a held-out half of the data: how easy the problem is
        *in this format*.
    """

    dataset: UCRDataset
    series_length: int
    class_counts: dict
    mean_within_class_correlation: float
    holdout_accuracy: float

    def to_text(self) -> str:
        lines = [
            "Figure 1 -- word utterances in the UCR format",
            f"  classes: {', '.join(str(c) for c in self.dataset.classes)}",
            f"  exemplars per class: {self.class_counts}",
            f"  common length: {self.series_length} samples (equal length by construction)",
            f"  mean within-class correlation (alignment): {self.mean_within_class_correlation:.3f}",
            f"  1-NN hold-out accuracy in this format: {self.holdout_accuracy:.3f}",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class Figure1Prepared:
    """Prepared inputs: the synthesised word dataset."""

    dataset: UCRDataset


def prepare(
    words: tuple[str, ...] = ("cat", "dog"),
    n_per_class: int = 30,
    length: int = 150,
    seed: int = 3,
) -> Figure1Prepared:
    """Synthesise the Fig. 1 word dataset (the cacheable stage)."""
    dataset = make_word_dataset(words=words, n_per_class=n_per_class, length=length, seed=seed)
    return Figure1Prepared(dataset=dataset)


def compute(prepared: Figure1Prepared) -> Figure1Result:
    """Measure alignment and separability on the prepared dataset."""
    dataset = prepared.dataset

    correlations = []
    for cls in dataset.classes:
        rows = dataset.exemplars_of_class(cls)
        for i in range(rows.shape[0]):
            for j in range(i + 1, rows.shape[0]):
                correlations.append(float(np.corrcoef(rows[i], rows[j])[0, 1]))
    mean_correlation = float(np.mean(correlations)) if correlations else 1.0

    # Odd/even split for a quick hold-out accuracy figure.
    train_idx = list(range(0, dataset.n_exemplars, 2))
    test_idx = list(range(1, dataset.n_exemplars, 2))
    train = dataset.subset(train_idx)
    test = dataset.subset(test_idx)
    model = KNeighborsTimeSeriesClassifier().fit(train.series, train.labels)
    holdout = model.score(test.series, test.labels)

    return Figure1Result(
        dataset=dataset,
        series_length=dataset.series_length,
        class_counts=dataset.class_counts(),
        mean_within_class_correlation=mean_correlation,
        holdout_accuracy=float(holdout),
    )


def metrics(result: Figure1Result) -> dict:
    """Key numbers for the JSON artifact."""
    return {
        "series_length": result.series_length,
        "n_exemplars": result.dataset.n_exemplars,
        "mean_within_class_correlation": result.mean_within_class_correlation,
        "holdout_accuracy": result.holdout_accuracy,
    }
