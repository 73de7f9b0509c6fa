"""Figure 9: the prefix error-rate curve of GunPoint.

    "We can keep only 30.6% of the data, and get the same accuracy as using
    all the data.  We can keep only 33.3% of the data, and get better accuracy
    than using all the data."

The bottom panel of the figure plots the hold-out classification error of
every prefix of GunPoint from length 20 to 150, with each truncated exemplar
correctly re-z-normalised.  The experiment regenerates the curve and extracts
the headline numbers: the error at full length, the best prefix, and the
shortest prefix matching full-length accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.prefix_accuracy import PrefixAccuracyCurve, compute_prefix_accuracy_curve
from repro.data.gunpoint import GunPointGenerator, make_gunpoint_dataset
from repro.data.ucr_format import UCRDataset

__all__ = ["Figure9Prepared", "Figure9Result", "prepare", "compute", "metrics"]


@dataclass(frozen=True)
class Figure9Result:
    """The regenerated Fig. 9 curve and its headline numbers.

    Attributes
    ----------
    curve:
        The full prefix-accuracy curve (lengths, accuracies, error rates).
    full_length_error:
        Error rate using all the data (the right end of the curve).
    best_length, best_error:
        The prefix length with the lowest error and that error.
    shortest_matching_length:
        Shortest prefix whose accuracy is at least the full-length accuracy.
    fraction_needed:
        That length as a fraction of the exemplar (the paper's "30.6%").
    discriminative_region:
        The sample range in which the generator places the class-discriminating
        gun-draw fumble (the figure's "gun being removed from holster"
        annotation).
    """

    curve: PrefixAccuracyCurve
    full_length_error: float
    best_length: int
    best_error: float
    shortest_matching_length: int
    fraction_needed: float
    discriminative_region: tuple[int, int]

    def to_text(self) -> str:
        lines = [
            "Figure 9 -- hold-out error rate of every prefix of GunPoint",
            f"  discriminative region (generator ground truth): samples "
            f"{self.discriminative_region[0]}-{self.discriminative_region[1]}",
            f"  error using all {self.curve.series_length} samples: {self.full_length_error:.3f}",
            f"  best prefix: {self.best_length} samples "
            f"({self.best_length / self.curve.series_length:.1%} of the data), "
            f"error {self.best_error:.3f}",
            f"  shortest prefix matching full-length accuracy: "
            f"{self.shortest_matching_length} samples "
            f"({self.fraction_needed:.1%} of the data)",
            f"  a proper prefix beats the full length: {self.curve.beats_full_length()}",
            "",
            "  length  error",
        ]
        for length, _, error in self.curve.as_rows():
            lines.append(f"  {length:>6d}  {error:.3f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Figure9Prepared:
    """Prepared inputs: the raw-unit GunPoint train/test split."""

    train: UCRDataset
    test: UCRDataset


def prepare(
    n_train_per_class: int = 25,
    n_test_per_class: int = 75,
    seed: int = 7,
) -> Figure9Prepared:
    """Synthesise the GunPoint split the curve is computed over."""
    train, test = make_gunpoint_dataset(
        n_train_per_class=n_train_per_class,
        n_test_per_class=n_test_per_class,
        seed=seed,
        znormalize=False,
    )
    return Figure9Prepared(train=train, test=test)


def compute(
    prepared: Figure9Prepared,
    min_length: int = 20,
    step: int = 2,
    seed: int = 7,
) -> Figure9Result:
    """Sweep every prefix length and extract the headline numbers."""
    train, test = prepared.train, prepared.test
    lengths = list(range(min_length, train.series_length + 1, step))
    if lengths[-1] != train.series_length:
        lengths.append(train.series_length)
    curve = compute_prefix_accuracy_curve(train, test, lengths=lengths, renormalize=True)

    best_length = curve.best_length()
    shortest = curve.shortest_length_matching_full()
    return Figure9Result(
        curve=curve,
        full_length_error=1.0 - curve.full_length_accuracy,
        best_length=best_length,
        best_error=1.0 - curve.accuracy_at(best_length),
        shortest_matching_length=shortest,
        fraction_needed=curve.fraction_needed(),
        discriminative_region=GunPointGenerator(length=train.series_length, seed=seed).discriminative_region(),
    )


def metrics(result: Figure9Result) -> dict:
    """Key numbers for the JSON artifact."""
    return {
        "full_length_error": result.full_length_error,
        "best_length": result.best_length,
        "best_error": result.best_error,
        "shortest_matching_length": result.shortest_matching_length,
        "fraction_needed": result.fraction_needed,
        "series_length": result.curve.series_length,
    }
