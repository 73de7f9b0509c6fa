"""Appendix B: the streaming deployment and cost-model experiment.

    "we applied the model in [2] to the GunPoint problem, with the exemplars
    inserted in between long stretches of random walks, and we see thousands
    of false positives for every true positive"

and the break-even arithmetic:

    "Assume it costs $1,000 to clean out the apparatus after such an event ...
    This action must also have some cost, let us say $200.  Thus, in order for
    an ETSC model to be said to work, it must at least break even, producing
    at least one true positive for every five false positives."

The experiment composes a long stream of smoothed random walk with a handful
of genuine GunPoint exemplars embedded in it, runs a TEASER-style detector
over it, matches the alarms against the ground truth, and prices the outcome
with the Appendix B cost model.  The per-sample false-positive *rate* here is
lower than the paper's (our stream is shorter and our stride coarser), but
the structural conclusion -- false positives outnumber true positives by a
large factor and the deployment loses money -- is the reproduced claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.classifiers.base import BaseEarlyClassifier
from repro.classifiers.teaser import TEASERClassifier
from repro.core.criteria import CostBenefitCriterion, CriterionResult, PriorProbabilityCriterion
from repro.data.gunpoint import GUN, make_gunpoint_dataset
from repro.data.random_walk import random_walk_background
from repro.data.stream import ComposedStream, StreamComposer
from repro.data.ucr_format import UCRDataset
from repro.streaming.costs import CostModel
from repro.streaming.detector import StreamingEarlyDetector
from repro.streaming.metrics import StreamingEvaluation, evaluate_alarms

__all__ = [
    "AppendixBPrepared",
    "AppendixBResult",
    "prepare",
    "compute",
    "metrics",
]


@dataclass(frozen=True)
class AppendixBResult:
    """Outcome of the streaming deployment experiment.

    Attributes
    ----------
    evaluation:
        Event-level streaming metrics (TP/FP/FN, false positives per true
        positive, ...).
    cost_criterion:
        The Appendix B cost-model verdict.
    prior_criterion:
        The base-rate verdict (expected false alarms per true event given the
        event prior in this stream).
    n_embedded_events:
        Number of genuine exemplars embedded in the stream.
    stream_length:
        Stream length in samples.
    event_prior:
        Fraction of stream samples covered by genuine events.
    """

    evaluation: StreamingEvaluation
    cost_criterion: CriterionResult
    prior_criterion: CriterionResult
    n_embedded_events: int
    stream_length: int
    event_prior: float

    def to_text(self) -> str:
        fp_per_tp = self.evaluation.false_positives_per_true_positive
        fp_per_tp_text = "inf" if fp_per_tp == float("inf") else f"{fp_per_tp:.1f}"
        return "\n".join(
            [
                "Appendix B -- streaming deployment of an early classifier",
                f"  stream: {self.stream_length:,} samples of smoothed random walk with "
                f"{self.n_embedded_events} genuine events embedded "
                f"(event prior {self.event_prior:.3%})",
                f"  alarms raised: {self.evaluation.n_alarms} "
                f"({self.evaluation.true_positives} true positives, "
                f"{self.evaluation.false_positives} false positives, "
                f"{self.evaluation.false_negatives} events missed)",
                f"  false positives per true positive: {fp_per_tp_text}",
                f"  false alarms per 1000 samples: "
                f"{self.evaluation.false_alarms_per_1000_samples:.2f}",
                f"  [cost model]  {self.cost_criterion.summary}",
                f"  [base rates]  {self.prior_criterion.summary}",
                f"  verdict: the deployment "
                + ("breaks even" if self.cost_criterion.passed else "loses money"),
            ]
        )


@dataclass(frozen=True)
class AppendixBPrepared:
    """Prepared inputs: the split, the default detector model, the stream."""

    train: UCRDataset
    default_classifier: BaseEarlyClassifier
    stream: ComposedStream


def prepare(
    n_events: int = 20,
    gap_range: tuple[int, int] = (2_000, 6_000),
    target_label: str = GUN,
    seed: int = 17,
) -> AppendixBPrepared:
    """Fit the default TEASER model and compose the deployment stream.

    The model is fitted even when ``compute`` is handed its own
    ``classifier``: the cache key cannot see that compute-stage argument.

    Parameters
    ----------
    n_events:
        Number of genuine GunPoint exemplars embedded in the stream.
    gap_range:
        Background gap (in samples) between consecutive embedded events.
    target_label:
        The class treated as actionable (alarms for it count; the other class
        is treated as part of the background, as the paper's framing implies).
    seed:
        Stream composition seed.
    """
    train, test = make_gunpoint_dataset(seed=7)

    default_classifier = TEASERClassifier()
    default_classifier.fit(train.series, train.labels)

    # Build the stream: genuine exemplars of the target class drawn from the
    # *test* split (the detector has never seen them), embedded in long
    # stretches of smoothed random walk.
    target_rows = test.exemplars_of_class(target_label)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, target_rows.shape[0], size=n_events)
    composer = StreamComposer(
        background=random_walk_background(smoothing=16, step_scale=0.3),
        gap_range=gap_range,
        level_match=True,
        seed=seed,
    )
    stream = composer.compose(
        [target_rows[i] for i in picks], [target_label] * n_events, name="appendix-b"
    )
    return AppendixBPrepared(
        train=train, default_classifier=default_classifier, stream=stream
    )


def compute(
    prepared: AppendixBPrepared,
    n_events: int = 20,
    stride: int = 10,
    target_label: str = GUN,
    classifier: BaseEarlyClassifier | None = None,
    normalization: str = "window",
    event_cost: float = 1000.0,
    action_cost: float = 200.0,
) -> AppendixBResult:
    """Deploy the classifier over the prepared stream and price the alarms.

    Parameters
    ----------
    n_events, target_label:
        As for :func:`prepare`.
    stride:
        Candidate-start stride of the streaming detector.
    classifier:
        A fitted early classifier to deploy; defaults to the TEASER model
        :func:`prepare` trained on the synthetic GunPoint training split.
    normalization:
        Candidate-window normalisation mode (``"window"`` gives the detector
        the *benefit* of peeking; even then the false positives dominate,
        which is the paper's point).
    event_cost, action_cost:
        The Appendix B cost model ($1000 event, $200 action).
    """
    train, stream = prepared.train, prepared.stream

    if classifier is None:
        classifier = prepared.default_classifier
    elif not classifier.is_fitted:
        raise ValueError("a supplied classifier must already be fitted")

    # Deploy through the online engine, consuming the stream in chunks the
    # way a live service would (the detector's detect() is the same engine;
    # feeding chunks here keeps the experiment honest about the data access
    # pattern the paper's argument is about).
    detector = StreamingEarlyDetector(
        classifier,
        stride=stride,
        normalization=normalization,  # type: ignore[arg-type]
    )
    session = detector.open_session()
    for chunk in stream.iter_chunks(4096):
        session.extend(chunk)
    alarms = session.finalize()
    # Only alarms for the actionable class are actions taken; alarms naming the
    # other class are not counted against the detector here (being generous).
    target_alarms = [a for a in alarms if a.label == target_label]
    evaluation = evaluate_alarms(
        target_alarms, stream, target_labels=(target_label,), onset_tolerance=len(train.series[0]) // 4
    )

    cost_criterion = CostBenefitCriterion(
        CostModel(event_cost=event_cost, action_cost=action_cost)
    ).evaluate(evaluation)

    event_prior = 1.0 - stream.background_fraction()
    per_window_fpr = min(
        evaluation.false_positives
        / max((len(stream) - n_events * train.series_length) / max(stride, 1), 1.0),
        1.0,
    )
    prior_criterion = PriorProbabilityCriterion(
        max_false_positives_per_event=event_cost / action_cost
    ).evaluate(
        event_prior=event_prior,
        per_window_false_positive_rate=per_window_fpr,
        per_window_true_positive_rate=evaluation.recall if evaluation.recall > 0 else 1.0,
    )

    return AppendixBResult(
        evaluation=evaluation,
        cost_criterion=cost_criterion,
        prior_criterion=prior_criterion,
        n_embedded_events=n_events,
        stream_length=len(stream),
        event_prior=event_prior,
    )


def metrics(result: AppendixBResult) -> dict:
    """Key numbers for the JSON artifact."""
    evaluation = result.evaluation
    fp_per_tp = evaluation.false_positives_per_true_positive
    return {
        "n_alarms": evaluation.n_alarms,
        "true_positives": evaluation.true_positives,
        "false_positives": evaluation.false_positives,
        "false_negatives": evaluation.false_negatives,
        "false_positives_per_true_positive": (
            None if fp_per_tp == float("inf") else fp_per_tp
        ),
        "stream_length": result.stream_length,
        "n_embedded_events": result.n_embedded_events,
        "event_prior": result.event_prior,
        "breaks_even": result.cost_criterion.passed,
    }
