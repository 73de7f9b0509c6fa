"""Section 5's padding claim: apparent ETSC success from a formatting convention.

    "it seems possible that some (possibly a very large) fraction of the
    apparent success of ETSC may be due to nothing more than a formatting
    convention that padded the right side of events with uninformative data,
    just to make the objects the same length."

The experiment makes the claim quantitative on two UCR-style synthetic
datasets (CBF-like and Trace-like).  Each dataset is generated twice from the
same process: once with the archive-style right padding and once with the
padding removed.  An early classifier is trained and evaluated on both, and
its *apparent* earliness (fraction of the exemplar seen before committing) is
compared.  If the padding accounts for the apparent success, the earliness
advantage should shrink dramatically once the padding is gone -- because the
classifier was never "early" relative to the event, only relative to the
padding appended after it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classifiers.threshold import ProbabilityThresholdClassifier
from repro.data.ucr_format import UCRDataset, train_test_split
from repro.data.ucr_like import make_cbf_dataset, make_trace_dataset
from repro.evaluation.earliness import EarlinessAccuracyResult
from repro.evaluation.runner import fit_and_score

__all__ = [
    "PaddingComparison",
    "Section5Prepared",
    "Section5PaddingResult",
    "prepare",
    "compute",
    "metrics",
]


@dataclass(frozen=True)
class PaddingComparison:
    """Earliness of the same early classifier with and without right padding.

    Attributes
    ----------
    dataset_name:
        Which dataset family the comparison is on.
    pad_fraction:
        Fraction of each padded exemplar that is uninformative tail.
    padded, unpadded:
        Early-classification results on the padded and unpadded variants.
    apparent_savings_padded, apparent_savings_unpadded:
        ``1 - earliness`` for each variant: the fraction of the exemplar the
        model "saved" by stopping early.
    padding_share_of_savings:
        How much of the padded variant's apparent savings is explained by the
        padding alone (1.0 means all of it).
    """

    dataset_name: str
    pad_fraction: float
    padded: EarlinessAccuracyResult
    unpadded: EarlinessAccuracyResult
    apparent_savings_padded: float
    apparent_savings_unpadded: float
    padding_share_of_savings: float


@dataclass(frozen=True)
class Section5PaddingResult:
    """The padding comparison across dataset families."""

    comparisons: tuple[PaddingComparison, ...]

    def to_text(self) -> str:
        lines = [
            "Section 5 -- how much apparent ETSC earliness is just right padding?",
            f"  {'dataset':<16s} {'variant':<9s} {'accuracy':>9s} {'earliness':>10s} "
            f"{'data saved':>11s}",
        ]
        for comparison in self.comparisons:
            for variant, result in (("padded", comparison.padded), ("unpadded", comparison.unpadded)):
                savings = 1.0 - result.earliness
                lines.append(
                    f"  {comparison.dataset_name:<16s} {variant:<9s} "
                    f"{result.accuracy:>9.1%} {result.earliness:>10.1%} {savings:>11.1%}"
                )
            lines.append(
                f"  -> {comparison.padding_share_of_savings:.0%} of the apparent savings on the "
                f"padded variant is accounted for by the {comparison.pad_fraction:.0%} padding"
            )
        return "\n".join(lines)


def _evaluate(dataset: UCRDataset, threshold: float, seed: int) -> EarlinessAccuracyResult:
    train, test = train_test_split(dataset, train_fraction=0.4)
    model = ProbabilityThresholdClassifier(threshold=threshold, min_length=8, checkpoint_step=2)
    return fit_and_score(model, train, test)


def _compare(
    name: str,
    padded: UCRDataset,
    unpadded: UCRDataset,
    pad_fraction: float,
    threshold: float,
    seed: int,
) -> PaddingComparison:
    padded_result = _evaluate(padded, threshold, seed)
    unpadded_result = _evaluate(unpadded, threshold, seed)
    savings_padded = 1.0 - padded_result.earliness
    savings_unpadded = 1.0 - unpadded_result.earliness
    if savings_padded > 0:
        share = min(max((savings_padded - savings_unpadded * (1.0 - pad_fraction)) / savings_padded, 0.0), 1.0)
    else:
        share = 0.0
    return PaddingComparison(
        dataset_name=name,
        pad_fraction=pad_fraction,
        padded=padded_result,
        unpadded=unpadded_result,
        apparent_savings_padded=savings_padded,
        apparent_savings_unpadded=savings_unpadded,
        padding_share_of_savings=share,
    )


@dataclass(frozen=True)
class Section5Prepared:
    """Prepared inputs: each dataset family, padded and unpadded."""

    cbf_padded: UCRDataset
    cbf_unpadded: UCRDataset
    trace_padded: UCRDataset
    trace_unpadded: UCRDataset


def prepare(
    n_per_class: int = 25,
    pad_fraction: float = 0.4,
    seed: int = 31,
) -> Section5Prepared:
    """Generate the padded and unpadded variants of both dataset families.

    Parameters
    ----------
    n_per_class:
        Exemplars per class in each dataset.
    pad_fraction:
        Fraction of each padded exemplar that is uninformative tail.
    seed:
        Generator seed (shared by the padded and unpadded variants so the
        underlying events are comparable).
    """
    return Section5Prepared(
        cbf_padded=make_cbf_dataset(
            n_per_class=n_per_class, pad_fraction=pad_fraction, seed=seed
        ),
        cbf_unpadded=make_cbf_dataset(n_per_class=n_per_class, pad_fraction=0.0, seed=seed),
        trace_padded=make_trace_dataset(
            n_per_class=n_per_class, pad_fraction=pad_fraction, seed=seed + 1
        ),
        trace_unpadded=make_trace_dataset(
            n_per_class=n_per_class, pad_fraction=0.0, seed=seed + 1
        ),
    )


def compute(
    prepared: Section5Prepared,
    pad_fraction: float = 0.4,
    threshold: float = 0.8,
    seed: int = 31,
) -> Section5PaddingResult:
    """Compare apparent earliness on the padded vs unpadded variants.

    ``threshold`` is the probability threshold of the early classifier;
    ``pad_fraction`` and ``seed`` are as for :func:`prepare`.
    """
    comparisons = [
        _compare(
            "CBF-like",
            prepared.cbf_padded,
            prepared.cbf_unpadded,
            pad_fraction,
            threshold,
            seed,
        ),
        _compare(
            "Trace-like",
            prepared.trace_padded,
            prepared.trace_unpadded,
            pad_fraction,
            threshold,
            seed,
        ),
    ]
    return Section5PaddingResult(comparisons=tuple(comparisons))


def metrics(result: Section5PaddingResult) -> dict:
    """Key numbers for the JSON artifact."""
    values: dict = {"n_comparisons": len(result.comparisons)}
    for comparison in result.comparisons:
        key = comparison.dataset_name.replace("-", "_").lower()
        values[f"{key}_padded_accuracy"] = comparison.padded.accuracy
        values[f"{key}_padded_earliness"] = comparison.padded.earliness
        values[f"{key}_unpadded_earliness"] = comparison.unpadded.earliness
        values[f"{key}_padding_share_of_savings"] = comparison.padding_share_of_savings
    return values
