"""Figure 6: the "denormalisation" perturbation and who it hurts.

The figure shows GunPoint exemplars shifted vertically by a random offset in
[-1, 1] -- a perturbation "approximately equivalent to tilting the camera
randomly up or down by about 1.9 degrees".  The paper stresses two facts
about it:

* it has **no effect on normal nearest-neighbour classification** ("It is
  also important to note what effect this would have on normal nearest
  neighbor classification: none"), because the classifier re-z-normalises --
  and in fact even without re-normalisation a *full-length* comparison of
  z-normalised training exemplars is immune to a constant offset, since the
  cross term of the squared distance vanishes when the training exemplars
  have zero mean;
* it is fatal to anything that consumes a **prefix** of the exemplar as if it
  were already normalised, because the prefix of a shifted exemplar has a
  different mean and the missing suffix cannot be used to remove it.  That is
  the mechanism behind every row of Table 1.

The experiment therefore reports three conditions: the re-normalising
full-length 1-NN control, a prefix 1-NN that re-normalises each prefix
(honest early classification), and a prefix 1-NN that consumes the raw prefix
values (the implicit ETSC assumption).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.denormalize import denormalize_dataset
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.ucr_format import UCRDataset
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier
from repro.evaluation.runner import prefix_accuracy_curve

__all__ = ["Figure6Prepared", "Figure6Result", "prepare", "compute", "metrics"]


@dataclass(frozen=True)
class Figure6Result:
    """Effect of the Fig. 6 perturbation on three classification procedures.

    Attributes
    ----------
    offsets_applied:
        The random offsets added to the first few test exemplars (the figure
        annotates two of them: +0.206 and -0.452).
    prefix_length:
        Prefix length used by the two early-classification conditions.
    full_length_clean, full_length_denormalized:
        Accuracy of re-normalising full-length 1-NN (the paper's "none"
        control).
    prefix_renormalized_clean, prefix_renormalized_denormalized:
        Accuracy of prefix 1-NN when each prefix is re-z-normalised (honest).
    prefix_raw_clean, prefix_raw_denormalized:
        Accuracy of prefix 1-NN on raw prefix values (the ETSC assumption);
        the perturbation destroys this condition and only this condition.
    """

    offsets_applied: tuple[float, ...]
    prefix_length: int
    full_length_clean: float
    full_length_denormalized: float
    prefix_renormalized_clean: float
    prefix_renormalized_denormalized: float
    prefix_raw_clean: float
    prefix_raw_denormalized: float

    def to_text(self) -> str:
        return "\n".join(
            [
                "Figure 6 -- shifting exemplars by a random offset in [-1, 1]",
                "  example offsets applied: "
                + ", ".join(f"{o:+.3f}" for o in self.offsets_applied[:4]),
                "  full-length 1-NN, re-normalised (normal classification):",
                f"    clean {self.full_length_clean:.3f}  |  denormalised "
                f"{self.full_length_denormalized:.3f}   <- unaffected ('none')",
                f"  prefix ({self.prefix_length} samples) 1-NN, prefix re-normalised (honest early):",
                f"    clean {self.prefix_renormalized_clean:.3f}  |  denormalised "
                f"{self.prefix_renormalized_denormalized:.3f}   <- also unaffected",
                f"  prefix ({self.prefix_length} samples) 1-NN, raw values (the ETSC assumption):",
                f"    clean {self.prefix_raw_clean:.3f}  |  denormalised "
                f"{self.prefix_raw_denormalized:.3f}   <- collapses",
            ]
        )


def _prefix_accuracy(
    train: UCRDataset, test: UCRDataset, length: int, renormalize: bool
) -> float:
    # One-point prefix-accuracy curve: the shared evaluation runner owns the
    # truncation/re-normalisation mechanics (and the incremental fast path).
    curve = prefix_accuracy_curve(train, test, [length], renormalize=renormalize)
    return float(curve[length])


@dataclass(frozen=True)
class Figure6Prepared:
    """Prepared inputs: the clean GunPoint train/test split."""

    train: UCRDataset
    test: UCRDataset


def prepare(
    n_train_per_class: int = 25,
    n_test_per_class: int = 75,
    seed: int = 7,
) -> Figure6Prepared:
    """Synthesise the GunPoint split the perturbation is applied to."""
    train, test = make_gunpoint_dataset(
        n_train_per_class=n_train_per_class,
        n_test_per_class=n_test_per_class,
        seed=seed,
    )
    return Figure6Prepared(train=train, test=test)


def compute(
    prepared: Figure6Prepared,
    prefix_length: int = 50,
    offset_range: tuple[float, float] = (-1.0, 1.0),
    denormalize_seed: int = 11,
) -> Figure6Result:
    """Apply the perturbation and score the three classification procedures."""
    train, test = prepared.train, prepared.test
    denormalized = denormalize_dataset(test, seed=denormalize_seed, offset_range=offset_range)
    offsets = denormalized.series[:, 0] - test.series[:, 0]

    full_model = KNeighborsTimeSeriesClassifier(znormalize_inputs=True)
    full_model.fit(train.series, train.labels)

    return Figure6Result(
        offsets_applied=tuple(float(o) for o in offsets[:8]),
        prefix_length=prefix_length,
        full_length_clean=float(full_model.score(test.series, test.labels)),
        full_length_denormalized=float(
            full_model.score(denormalized.series, denormalized.labels)
        ),
        prefix_renormalized_clean=_prefix_accuracy(train, test, prefix_length, True),
        prefix_renormalized_denormalized=_prefix_accuracy(
            train, denormalized, prefix_length, True
        ),
        prefix_raw_clean=_prefix_accuracy(train, test, prefix_length, False),
        prefix_raw_denormalized=_prefix_accuracy(train, denormalized, prefix_length, False),
    )


def metrics(result: Figure6Result) -> dict:
    """Key numbers for the JSON artifact."""
    return {
        "prefix_length": result.prefix_length,
        "full_length_clean": result.full_length_clean,
        "full_length_denormalized": result.full_length_denormalized,
        "prefix_renormalized_clean": result.prefix_renormalized_clean,
        "prefix_renormalized_denormalized": result.prefix_renormalized_denormalized,
        "prefix_raw_clean": result.prefix_raw_clean,
        "prefix_raw_denormalized": result.prefix_raw_denormalized,
    }
