"""Figure 8: the chicken dustbathing template and its truncated prefix.

    "Any subsequence that is within 2.3 of z-normalized Euclidean distance of
    this template is essentially guaranteed to be dustbathing. ... The time
    series shown in Fig. 8 (center) is a prefix of the first template, and
    any subsequence that is within 1.7 of this template can be classified as
    dustbathing with an accuracy that is not statistically significantly
    different from the accuracy achieved with the longer template."

The experiment simulates a long accelerometer stream, matches both the full
template and its truncated prefix against it, and tests whether the two
detection accuracies differ significantly (they should not).  The paper's
point is then made in Section 5: finding this out required no ETSC machinery
at all, just a template and a few minutes of exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.chicken import DUSTBATHING, ChickenBehaviorSimulator, dustbathing_template
from repro.data.stream import ComposedStream
from repro.distance.profile import distance_profile
from repro.evaluation.significance import SignificanceResult, two_proportion_z_test

__all__ = [
    "Figure8Prepared",
    "TemplateMatchResult",
    "Figure8Result",
    "prepare",
    "compute",
    "metrics",
]


@dataclass(frozen=True)
class TemplateMatchResult:
    """Detection outcome of one template at one threshold.

    Attributes
    ----------
    template_name:
        "full" or "truncated".
    template_length:
        Template length in samples.
    threshold:
        z-normalised distance threshold used for a match.
    true_positives, false_positives, false_negatives:
        Bout-level detection counts.
    precision, recall:
        Derived rates.
    """

    template_name: str
    template_length: int
    threshold: float
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float


@dataclass(frozen=True)
class Figure8Result:
    """Full-vs-truncated template comparison on the accelerometer stream.

    Attributes
    ----------
    full, truncated:
        Per-template detection results.
    n_dustbathing_bouts:
        Ground-truth dustbathing bouts in the stream.
    stream_length:
        Number of samples simulated.
    significance:
        Two-proportion z-test comparing the recall of the two templates; the
        paper's claim is that the difference is *not* significant.
    """

    full: TemplateMatchResult
    truncated: TemplateMatchResult
    n_dustbathing_bouts: int
    stream_length: int
    significance: SignificanceResult

    def to_text(self) -> str:
        lines = [
            "Figure 8 -- dustbathing template vs its truncated prefix",
            f"  stream: {self.stream_length:,} samples, "
            f"{self.n_dustbathing_bouts} dustbathing bouts",
        ]
        for result in (self.full, self.truncated):
            lines.append(
                f"  {result.template_name:<9s} template (len {result.template_length:>3d}, "
                f"threshold {result.threshold}): recall {result.recall:.2%}, "
                f"precision {result.precision:.2%} "
                f"({result.true_positives} TP / {result.false_positives} FP / "
                f"{result.false_negatives} FN)"
            )
        verdict = "NOT significantly different" if not self.significance.significant else "significantly different"
        lines.append(
            f"  recall difference is {verdict} "
            f"(two-proportion z = {self.significance.statistic:.2f}, "
            f"p = {self.significance.p_value:.3f})"
        )
        return "\n".join(lines)


def _match_template(
    template: np.ndarray,
    threshold: float,
    stream: ComposedStream,
    name: str,
) -> TemplateMatchResult:
    """Match one template against the stream and score it against the bouts."""
    profile = distance_profile(template, stream.values)
    below = profile <= threshold

    dust_events = stream.events_with_label(DUSTBATHING)
    detected = 0
    for event in dust_events:
        start = max(event.start - len(template), 0)
        end = min(event.end, below.shape[0])
        if start < end and np.any(below[start:end]):
            detected += 1

    # False positives: matches whose window does not overlap any dustbathing bout.
    false_positives = 0
    match_positions = np.flatnonzero(below)
    last_counted = -10 * len(template)
    for position in match_positions:
        if position - last_counted < len(template) // 2:
            continue  # part of the same match region
        window_end = position + len(template)
        overlaps = any(
            event.overlaps(position, window_end) for event in dust_events
        )
        if not overlaps:
            false_positives += 1
        last_counted = position

    true_positives = detected
    false_negatives = len(dust_events) - detected
    precision = (
        true_positives / (true_positives + false_positives)
        if (true_positives + false_positives)
        else 0.0
    )
    recall = true_positives / len(dust_events) if dust_events else 0.0
    return TemplateMatchResult(
        template_name=name,
        template_length=int(len(template)),
        threshold=float(threshold),
        true_positives=true_positives,
        false_positives=false_positives,
        false_negatives=false_negatives,
        precision=float(precision),
        recall=float(recall),
    )


@dataclass(frozen=True)
class Figure8Prepared:
    """Prepared inputs: the simulated accelerometer stream."""

    stream: ComposedStream


def prepare(
    n_points: int = 400_000,
    dustbathing_weight: float = 0.08,
    seed: int = 29,
) -> Figure8Prepared:
    """Simulate the chicken accelerometer stream the templates search.

    Parameters
    ----------
    n_points:
        Stream length.  The paper's archive has 12.5 billion points; the
        default here is laptop-scale but long enough for dozens of bouts.
    dustbathing_weight:
        Behaviour weight of dustbathing in the simulator.  The paper's archive
        spans weeks, so even a rare behaviour yields hundreds of bouts; at
        laptop scale the weight is raised instead, which changes the base
        rate but not the template-vs-prefix comparison the figure is about.
    seed:
        Simulator seed.
    """
    weights = {
        "resting": 0.44 - dustbathing_weight / 2,
        "walking": 0.26 - dustbathing_weight / 2,
        "pecking": 0.17,
        "preening": 0.08,
        DUSTBATHING: 0.05 + dustbathing_weight,
    }
    simulator = ChickenBehaviorSimulator(seed=seed, behavior_weights=weights)
    return Figure8Prepared(stream=simulator.generate(n_points))


def compute(
    prepared: Figure8Prepared,
    full_threshold: float = 2.3,
    truncated_threshold: float = 1.7,
    truncated_fraction: float = 0.58,
) -> Figure8Result:
    """Match the full and truncated templates and test their equivalence.

    Parameters
    ----------
    full_threshold, truncated_threshold:
        The matching thresholds quoted in the paper (2.3 and 1.7).
    truncated_fraction:
        Fraction of the full template retained in the truncated version
        (the paper's truncated template is roughly the first 70 of 120
        samples).
    """
    stream = prepared.stream
    dust_events = stream.events_with_label(DUSTBATHING)
    if len(dust_events) < 5:
        raise RuntimeError(
            "too few dustbathing bouts were generated; increase n_points or "
            "dustbathing_weight"
        )

    template = dustbathing_template()
    truncated_length = max(20, int(round(truncated_fraction * template.shape[0])))
    truncated = template[:truncated_length]

    full_result = _match_template(template, full_threshold, stream, "full")
    truncated_result = _match_template(truncated, truncated_threshold, stream, "truncated")

    significance = two_proportion_z_test(
        full_result.true_positives,
        len(dust_events),
        truncated_result.true_positives,
        len(dust_events),
    )
    return Figure8Result(
        full=full_result,
        truncated=truncated_result,
        n_dustbathing_bouts=len(dust_events),
        stream_length=len(stream),
        significance=significance,
    )


def metrics(result: Figure8Result) -> dict:
    """Key numbers for the JSON artifact."""
    return {
        "n_dustbathing_bouts": result.n_dustbathing_bouts,
        "stream_length": result.stream_length,
        "full_recall": result.full.recall,
        "full_precision": result.full.precision,
        "truncated_recall": result.truncated.recall,
        "truncated_precision": result.truncated.precision,
        "recall_difference_significant": result.significance.significant,
        "p_value": result.significance.p_value,
    }
