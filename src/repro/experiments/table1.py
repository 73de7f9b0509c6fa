"""Table 1: the accuracy of six early classification algorithms.

The table evaluates ECTS, RelaxedECTS (both with minimum support 0), EDSC-CHE,
EDSC-KDE, Reliable Classification and LDG Reliable Classification (both with
tau = 0.1) on GunPoint twice: on the archive's z-normalised test set, and on a
"denormalised" test set in which every exemplar has been shifted by a random
offset in [-1, 1].  In the paper the algorithms lose between 18 and 37
accuracy points under this physically trivial perturbation.

Absolute numbers differ here (different data generator, reimplemented
algorithms); the claim being reproduced is the *shape*: every algorithm that
consumes prefix values as given collapses, while a full-length classifier
that re-normalises (reported as a control row) does not move at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.classifiers.base import BaseEarlyClassifier
from repro.classifiers.ects import ECTSClassifier, RelaxedECTSClassifier
from repro.classifiers.edsc import EDSCClassifier
from repro.classifiers.reliable import LDGReliableEarlyClassifier, ReliableEarlyClassifier
from repro.core.normalization_audit import (
    NormalizationAuditResult,
    audit_normalization_sensitivity,
)
from repro.data.gunpoint import make_gunpoint_dataset
from repro.data.ucr_format import UCRDataset
from repro.distance.neighbors import KNeighborsTimeSeriesClassifier

__all__ = [
    "Table1Prepared",
    "Table1Result",
    "default_algorithms",
    "prepare",
    "compute",
    "metrics",
]

#: Accuracy values reported in the paper's Table 1, for side-by-side display.
PAPER_REFERENCE = {
    "(min. support = 0) ECTS": (0.867, 0.687),
    "(min. support = 0) RelaxedECTS": (0.867, 0.687),
    "EDSC-CHE": (0.947, 0.627),
    "EDSC-KDE": (0.953, 0.587),
    "(tau = 0.1) Rel. Class.": (0.900, 0.700),
    "(tau = 0.1) LDG Rel. Class.": (0.913, 0.713),
}


def default_algorithms(fast: bool = False) -> dict[str, Callable[[], BaseEarlyClassifier]]:
    """Factories for the six algorithms of Table 1.

    Parameters
    ----------
    fast:
        Use cheaper settings (fewer Monte Carlo samples, coarser checkpoints)
        so the table can be regenerated quickly in tests; the qualitative
        outcome is unchanged.
    """
    reliable_kwargs = dict(tau=0.1)
    if fast:
        reliable_kwargs.update(n_monte_carlo=40, checkpoint_fractions=tuple(
            f / 10 for f in range(2, 11)
        ))
    return {
        "(min. support = 0) ECTS": lambda: ECTSClassifier(min_support=0.0),
        "(min. support = 0) RelaxedECTS": lambda: RelaxedECTSClassifier(min_support=0.0),
        "EDSC-CHE": lambda: EDSCClassifier(threshold_method="che"),
        "EDSC-KDE": lambda: EDSCClassifier(threshold_method="kde"),
        "(tau = 0.1) Rel. Class.": lambda: ReliableEarlyClassifier(**reliable_kwargs),
        "(tau = 0.1) LDG Rel. Class.": lambda: LDGReliableEarlyClassifier(**reliable_kwargs),
    }


@dataclass(frozen=True)
class Table1Result:
    """The regenerated Table 1.

    Attributes
    ----------
    audits:
        One normalisation audit per algorithm, in table order.
    control_normalized, control_denormalized:
        Accuracy of the re-normalising full-length 1-NN control on the two
        test conditions (the paper states this control is unaffected).
    """

    audits: tuple[NormalizationAuditResult, ...]
    control_normalized: float
    control_denormalized: float

    def rows(self) -> list[tuple[str, float, float]]:
        """(algorithm, normalised accuracy, denormalised accuracy) rows."""
        return [
            (a.algorithm, a.normalized.accuracy, a.denormalized.accuracy) for a in self.audits
        ]

    def to_text(self) -> str:
        lines = [
            "Table 1 -- accuracy of six early classification algorithms",
            f"  {'Algorithm':<34s} {'Normalized':>10s} {'DeNormalized':>13s}"
            f"   {'(paper: norm / denorm)':>24s}",
        ]
        for audit in self.audits:
            reference = PAPER_REFERENCE.get(audit.algorithm)
            reference_text = (
                f"({reference[0]:.1%} / {reference[1]:.1%})" if reference else ""
            )
            lines.append(
                f"  {audit.algorithm:<34s} {audit.normalized.accuracy:>10.1%} "
                f"{audit.denormalized.accuracy:>13.1%}   {reference_text:>24s}"
            )
        lines.append(
            f"  {'[control] re-normalising 1-NN':<34s} {self.control_normalized:>10.1%} "
            f"{self.control_denormalized:>13.1%}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class Table1Prepared:
    """Prepared inputs: the GunPoint train/test split the table audits."""

    train: UCRDataset
    test: UCRDataset


def prepare(
    n_train_per_class: int = 25,
    n_test_per_class: int = 75,
    seed: int = 7,
) -> Table1Prepared:
    """Synthesise the GunPoint split shared by every audited algorithm.

    Parameters
    ----------
    n_train_per_class, n_test_per_class:
        GunPoint-style split sizes (25/75 mirrors the archive's 50/150).
    seed:
        Data generation seed.
    """
    train, test = make_gunpoint_dataset(
        n_train_per_class=n_train_per_class,
        n_test_per_class=n_test_per_class,
        seed=seed,
    )
    return Table1Prepared(train=train, test=test)


def compute(
    prepared: Table1Prepared,
    algorithms: Mapping[str, Callable[[], BaseEarlyClassifier]] | None = None,
    offset_range: tuple[float, float] = (-1.0, 1.0),
    fast_classifiers: bool = False,
    denormalize_seed: int = 11,
) -> Table1Result:
    """Audit every algorithm's normalisation sensitivity on the split.

    Parameters
    ----------
    algorithms:
        Mapping of display name to classifier factory; defaults to the six
        algorithms of the table.
    offset_range:
        The denormalisation offset range (the paper uses [-1, 1]).
    fast_classifiers:
        Forwarded to :func:`default_algorithms` as ``fast``.
    denormalize_seed:
        Perturbation seed.
    """
    train, test = prepared.train, prepared.test
    if algorithms is None:
        algorithms = default_algorithms(fast=fast_classifiers)

    audits = []
    for name, factory in algorithms.items():
        audits.append(
            audit_normalization_sensitivity(
                factory,
                train,
                test,
                algorithm_name=name,
                offset_range=offset_range,
                seed=denormalize_seed,
            )
        )

    control_norm, control_denorm = _control_accuracies(
        train, test, offset_range, denormalize_seed
    )
    return Table1Result(
        audits=tuple(audits),
        control_normalized=control_norm,
        control_denormalized=control_denorm,
    )


def metrics(result: Table1Result) -> dict:
    """Key numbers for the JSON artifact."""
    values: dict = {
        "n_algorithms": len(result.audits),
        "control_normalized": result.control_normalized,
        "control_denormalized": result.control_denormalized,
    }
    for algorithm, normalized, denormalized in result.rows():
        key = (
            algorithm.replace("(", "").replace(")", "").replace("=", "")
            .replace(".", "").replace(" ", "_").strip("_").lower()
        )
        values[f"{key}_normalized"] = normalized
        values[f"{key}_denormalized"] = denormalized
    return values


def _control_accuracies(
    train: UCRDataset,
    test: UCRDataset,
    offset_range: tuple[float, float],
    denormalize_seed: int,
) -> tuple[float, float]:
    """Full-length 1-NN with re-normalisation: the unaffected control."""
    from repro.data.denormalize import denormalize_dataset

    model = KNeighborsTimeSeriesClassifier(znormalize_inputs=True)
    model.fit(train.series, train.labels)
    denormalized = denormalize_dataset(test, seed=denormalize_seed, offset_range=offset_range)
    return (
        float(model.score(test.series, test.labels)),
        float(model.score(denormalized.series, denormalized.labels)),
    )
